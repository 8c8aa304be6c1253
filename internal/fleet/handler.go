package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
)

// Handler serves the registry at /debug/fleet, following the
// /debug/selection pattern: indented JSON of the State snapshot by
// default, a fixed-width text table with ?format=table, sortable with
// ?sort=<column> (one of id, selected, reported, cut, failed,
// unavailable, flakiness, ewma, p50, p90, p99 — metric columns sort
// descending).
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		Serve(w, req, r.State())
	})
}

// Serve writes st as Handler does — JSON, or the table under
// ?format=table — for handlers that filter a State before rendering it.
func Serve(w http.ResponseWriter, req *http.Request, st State) {
	if req.URL.Query().Get("format") == "table" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		WriteTable(w, st, req.URL.Query().Get("sort"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(st); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// clientSortKeys maps a ?sort= value to the comparison key; metric
// columns sort descending (worst first), id ascending.
var clientSortKeys = map[string]func(c ClientHealth) float64{
	"selected":    func(c ClientHealth) float64 { return float64(c.Selected) },
	"reported":    func(c ClientHealth) float64 { return float64(c.Reported) },
	"cut":         func(c ClientHealth) float64 { return float64(c.StragglerCut) },
	"failed":      func(c ClientHealth) float64 { return float64(c.Failed) },
	"unavailable": func(c ClientHealth) float64 { return float64(c.Unavailable) },
	"flakiness":   func(c ClientHealth) float64 { return c.Flakiness },
	"ewma":        func(c ClientHealth) float64 { return c.LatencyEWMA },
	"p50":         func(c ClientHealth) float64 { return c.LatencyP50 },
	"p90":         func(c ClientHealth) float64 { return c.LatencyP90 },
	"p99":         func(c ClientHealth) float64 { return c.LatencyP99 },
}

// WriteTable renders a State as the fixed-width text form of
// /debug/fleet?format=table.
func WriteTable(w io.Writer, st State, sortKey string) {
	fmt.Fprintf(w, "fleet: rounds %d  clock %.3f  selections %d  fairness %.4f\n",
		st.Rounds, st.Clock, st.TotalSelected, st.Fairness)

	clients := append([]ClientHealth(nil), st.Clients...)
	if key, ok := clientSortKeys[sortKey]; ok {
		sort.SliceStable(clients, func(i, j int) bool { return key(clients[i]) > key(clients[j]) })
	}
	fmt.Fprintf(w, "\n%6s %8s %8s %6s %6s %6s %8s %9s %9s %9s %9s %9s %9s\n",
		"client", "selected", "reported", "cut", "failed", "unavl", "lastseen", "loss", "flaky", "ewma", "p50", "p90", "p99")
	for _, c := range clients {
		fmt.Fprintf(w, "%6d %8d %8d %6d %6d %6d %8d %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f\n",
			c.ID, c.Selected, c.Reported, c.StragglerCut, c.Failed, c.Unavailable,
			c.LastSeen, c.LastLoss, c.Flakiness, c.LatencyEWMA, c.LatencyP50, c.LatencyP90, c.LatencyP99)
	}

	if len(st.Clusters) > 0 {
		fmt.Fprintf(w, "\n%7s %7s %8s %8s %8s\n", "cluster", "members", "share", "target", "drift")
		for _, ch := range st.Clusters {
			fmt.Fprintf(w, "%7d %7d %8.4f %8.4f %8.4f\n",
				ch.ID, len(ch.Members), ch.Share, ch.TargetShare, ch.Drift)
		}
	}
}
