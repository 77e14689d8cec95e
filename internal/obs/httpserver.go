package obs

// httpserver.go is the one HTTP server lifecycle every listener in the tree
// shares — the debug/pprof endpoint and the serving plane.
// It exists because `go http.ListenAndServe(...)` leaks its listener for the
// life of the process: soaks and tests that start servers repeatedly run out
// of ports, and SIGINT kills in-flight requests mid-body. StartHTTPServer
// binds synchronously (so ":0" tests learn the real port before the first
// request) and Shutdown drains gracefully under a caller deadline.

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync"
	"time"
)

// HTTPServer is a bound, running HTTP server with a graceful shutdown.
type HTTPServer struct {
	srv  *http.Server
	ln   net.Listener
	addr string

	mu      sync.Mutex
	served  chan struct{} // closed when Serve returns
	srvErr  error         // Serve's verdict, valid after served closes
	stopped bool
}

// StartHTTPServer binds addr and serves handler on a background goroutine.
// The bind is synchronous: on return the listener is accepting and Addr
// reports the resolved address (useful with ":0"). The caller owns the
// server and must Shutdown it.
func StartHTTPServer(addr string, handler http.Handler) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &HTTPServer{
		srv:    &http.Server{Handler: handler},
		ln:     ln,
		addr:   ln.Addr().String(),
		served: make(chan struct{}),
	}
	go func() {
		err := s.srv.Serve(ln)
		s.mu.Lock()
		if !errors.Is(err, http.ErrServerClosed) {
			s.srvErr = err
		}
		s.mu.Unlock()
		close(s.served)
	}()
	return s, nil
}

// Addr returns the bound address, with any ":0" port resolved.
func (s *HTTPServer) Addr() string { return s.addr }

// Shutdown stops accepting new connections and waits for in-flight requests
// to drain, bounded by ctx. It is idempotent and returns the first error
// from either the drain or the serve loop.
func (s *HTTPServer) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		<-s.served
		return s.srvErr
	}
	s.stopped = true
	s.mu.Unlock()
	err := s.srv.Shutdown(ctx)
	<-s.served
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil {
		err = s.srvErr
	}
	return err
}

// ShutdownTimeout is Shutdown with a fresh deadline — the SIGINT path in the
// cmds, where no parent context exists.
func (s *HTTPServer) ShutdownTimeout(d time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return s.Shutdown(ctx)
}
