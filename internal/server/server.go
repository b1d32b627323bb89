// Package server is decibel's network serving layer: an HTTP/JSON
// server (stdlib only) exposing the query builder, transactional
// commits, branch/merge and schema alters of one core.Database.
//
// Reads are snapshot-isolated and lock-free: a single-branch query
// resolves the branch's head commit once, at request start, and runs
// pinned to that commit ID — commit history is immutable, so the scan
// takes no branch locks and concurrent commits never move the data
// under it. Writes call core's Transact, BranchFromHead and
// MergeContext — the same calls the embedded facade makes, so the lock
// protocol and the abort rollback are core's alone. Request
// cancellation rides the per-request context: a client disconnect
// aborts the scan within one record.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"time"

	"decibel/client"
	"decibel/internal/core"
)

// Server serves one core.Database over HTTP. Construct with New,
// mount Handler on any http.Server, or run Serve for the managed
// lifecycle (graceful drain on context cancellation).
type Server struct {
	db  *core.Database
	mux *http.ServeMux

	// ShutdownTimeout bounds the graceful drain Serve performs when
	// its context is canceled: in-flight requests get this long to
	// finish before the listener's connections are torn down, and the
	// database drain gets the same bound. Zero means 5s.
	ShutdownTimeout time.Duration
}

// New returns a server for db. The database's lifecycle belongs to
// the caller unless Serve is used (which closes it on shutdown).
func New(db *core.Database) *Server {
	s := &Server{db: db, mux: http.NewServeMux()}
	s.routes()
	registerDB(db)
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/query", s.count(s.handleQuery))
	s.mux.HandleFunc("POST /v1/commit", s.count(s.handleCommit))
	s.mux.HandleFunc("POST /v1/branch", s.count(s.handleBranch))
	s.mux.HandleFunc("POST /v1/merge", s.count(s.handleMerge))
	s.mux.HandleFunc("POST /v1/alter", s.count(s.handleAlter))
	s.mux.HandleFunc("POST /v1/compact", s.count(s.handleCompact))
	s.mux.HandleFunc("GET /v1/tables", s.count(s.handleTables))
	s.mux.HandleFunc("GET /v1/branches", s.count(s.handleBranches))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
}

// Handler returns the server's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until ctx is canceled (the serve
// subcommand wires SIGTERM/SIGINT into that), then shuts down
// gracefully: stop accepting, drain in-flight requests, drain the
// database's transactions and close it. Late arrivals during the drain
// get 503 ErrDatabaseClosed rather than a hang.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler: s.mux,
		// BaseContext ties every request's context to the serve
		// context, so cancellation reaches in-flight scans too.
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	timeout := s.ShutdownTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	// The serve ctx is already canceled; drain on a fresh one.
	dctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	serr := hs.Shutdown(dctx)
	cerr := s.db.CloseContext(dctx)
	<-errc // always http.ErrServerClosed after Shutdown
	if serr != nil {
		return serr
	}
	return cerr
}

// count wraps a handler with the request/error counters.
func (s *Server) count(h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		if err := h(w, r); err != nil {
			s.fail(w, r, err)
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Probe liveness at the admission gate so a draining or closed
	// database reports unhealthy.
	if !s.db.Admitting() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// reply writes v as the JSON response body.
func reply(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(v)
}

// fail maps an error to its HTTP status and stable code, counts it,
// and writes the error body. Client disconnects (request context
// canceled) are not server errors: nobody is listening, so nothing is
// written and the error counter stays put.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, err error) {
	if r.Context().Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		canceled.Add(1)
		return
	}
	errorsTotal.Add(1)
	status, code := errStatus(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(client.ErrorResponse{Error: err.Error(), Code: code})
}

// errStatus maps decibel's sentinel errors to HTTP statuses and the
// wire protocol's stable codes.
func errStatus(err error) (int, string) {
	switch {
	case errors.Is(err, core.ErrNoSuchTable):
		return http.StatusNotFound, "no_such_table"
	case errors.Is(err, core.ErrNoSuchBranch):
		return http.StatusNotFound, "no_such_branch"
	case errors.Is(err, core.ErrNoSuchCommit):
		return http.StatusNotFound, "no_such_commit"
	case errors.Is(err, core.ErrNoSuchColumn):
		return http.StatusBadRequest, "no_such_column"
	case errors.Is(err, core.ErrColumnNotYetAdded):
		return http.StatusBadRequest, "column_not_yet_added"
	case errors.Is(err, core.ErrTypeMismatch):
		return http.StatusBadRequest, "type_mismatch"
	case errors.Is(err, core.ErrBadQuery):
		return http.StatusBadRequest, "bad_query"
	case errors.Is(err, core.ErrNoRows):
		return http.StatusNotFound, "no_rows"
	case errors.Is(err, core.ErrSchemaChange):
		return http.StatusConflict, "schema_change"
	case errors.Is(err, core.ErrDatabaseClosed):
		return http.StatusServiceUnavailable, "database_closed"
	case errors.Is(err, errBadRequest):
		return http.StatusBadRequest, "bad_request"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// errBadRequest marks protocol-level decode failures — a body that
// cannot be read as a request (malformed JSON, unknown op names, a
// value that does not fit its column) — distinct from the engine's
// sentinels. A readable query whose shape the planner rejects is
// core.ErrBadQuery (bad_query) instead.
var errBadRequest = errors.New("bad request")

func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errBadRequest}, args...)...)
}
