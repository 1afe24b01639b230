package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler returns the live-introspection HTTP handler:
//
//	/metrics        the registry snapshot as JSON (expvar-style), only
//	                for a non-nil reg
//	/debug/pprof/   the standard net/http/pprof profiles
//	/               an index of the above
//
// It is what cmd/anonsim serves under -http so long runs can be
// inspected while they execute; cmd/anonexplore passes a nil registry
// and serves pprof only.
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	if reg != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			if err := reg.WriteJSON(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "anonshm observability endpoints:")
		if reg != nil {
			fmt.Fprintln(w, "  /metrics       live metrics snapshot (JSON)")
		}
		fmt.Fprintln(w, "  /debug/pprof/  Go runtime profiles")
	})
	return mux
}

// Serve starts the introspection server on addr (e.g. ":6060") in a
// background goroutine and returns the bound address, so callers can use
// ":0" and report the actual port. The server lives until the process
// exits — these are diagnostics for finite command runs, not a managed
// subsystem.
func Serve(addr string, reg *Registry) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: Handler(reg)}
	go srv.Serve(ln) //nolint:errcheck // exits with the process
	return ln.Addr().String(), nil
}
