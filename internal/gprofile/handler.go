package gprofile

import (
	"net/http"

	"repro/internal/stack"
)

// Handler serves goroutine profiles for the current process in the pprof
// debug=2 text encoding. Mount it at /debug/pprof/goroutine:
//
//	mux.Handle("/debug/pprof/goroutine", gprofile.Handler{})
//
// ?debug=2 (the LEAKPROF input) returns the full stack dump; any other
// debug value, or none, is refused with 400. As the paper notes (Section
// V-A), merely enabling the endpoint costs nothing: work happens only
// when a profile is requested.
type Handler struct {
	// Stacks overrides the stack source; nil means the live process.
	// The fleet simulator injects each simulated instance's synthetic
	// goroutine population here.
	Stacks func() []*stack.Goroutine
}

// ServeHTTP implements http.Handler.
func (h Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("debug") != "2" {
		http.Error(w, "only ?debug=2 (the full goroutine stack dump) is served", http.StatusBadRequest)
		return
	}
	gs, err := h.snapshot()
	if err != nil {
		http.Error(w, "capturing stacks: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(stack.Format(gs)))
}

func (h Handler) snapshot() ([]*stack.Goroutine, error) {
	if h.Stacks != nil {
		return h.Stacks(), nil
	}
	gs, _, err := stack.CurrentWithSelf()
	return gs, err
}
