package shard

import (
	"encoding/json"
	"net/http"
	"strconv"

	"haccs/internal/fleet"
	"haccs/internal/rounds"
)

// StatusHandler serves the root's per-shard view (client counts,
// self-reported sessions/reconnects, local clocks, base versions,
// failure counts) as indented JSON — mount it at /debug/shards. The
// statuses callback is Root.ShardStatuses, which reads the copy
// refreshed at each round boundary, so scraping never races the
// driver.
func StatusHandler(statuses func() []rounds.ShardStatus) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(statuses()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// FleetHandler serves the root's merged fleet registry like
// fleet.Handler — indented JSON, ?format=table, ?sort= — with one
// addition: ?shard=<id> restricts the client rows to the slice owned
// by that shard (ownerID maps a client to its shard ID, e.g. Ring.Owner). The fleet-wide aggregates
// (rounds, clock, fairness) stay global: they describe the run, not
// the slice.
func FleetHandler(reg *fleet.Registry, ownerID func(clientID int) int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		st := reg.State()
		if q := req.URL.Query().Get("shard"); q != "" {
			want, err := strconv.Atoi(q)
			if err != nil {
				http.Error(w, "shard: ?shard= must be an integer shard ID", http.StatusBadRequest)
				return
			}
			kept := st.Clients[:0:0]
			for _, c := range st.Clients {
				if ownerID(c.ID) == want {
					kept = append(kept, c)
				}
			}
			st.Clients = kept
		}
		if req.URL.Query().Get("format") == "table" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fleet.WriteTable(w, st, req.URL.Query().Get("sort"))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(st); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
