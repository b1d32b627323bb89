package decibel

import (
	"context"
	"net"
	"net/http"
	"time"

	"decibel/internal/server"
)

// Server serves a DB over HTTP/JSON — the network serving layer the
// `decibel serve` subcommand runs, exposed here so programs can embed
// it. The protocol (endpoints, wire types, the decibel/client Go
// client) exposes the full query builder, transactional commits,
// branch/merge and schema alters.
//
// Reads are snapshot-isolated and lock-free: each single-branch query
// pins the branch head commit resolved at request start and scans
// immutable history, so readers never wait on (or block) writers.
// Writes serialize through the same branch-exclusive-lock commit path
// as DB.Commit. Request contexts cancel mid-scan within one record,
// so a disconnected client stops costing anything almost immediately.
//
// Observability: GET /debug/vars exposes the process's expvar
// counters — decibel.segments_scanned/_skipped, decibel.point_lookups,
// decibel.server.{requests,errors,canceled,commits,active_sessions} —
// and GET /healthz reports liveness (503 once shutdown has begun).
type Server struct {
	inner *server.Server
}

// NewServer returns a server for db. The database's lifecycle belongs
// to the caller unless Serve is used, which closes it on shutdown.
func NewServer(db *DB) *Server {
	return &Server{inner: server.New(db.Database)}
}

// Handler returns the server's root http.Handler, for mounting on a
// caller-owned http.Server (tests use httptest.NewServer around it).
func (s *Server) Handler() http.Handler { return s.inner.Handler() }

// SetShutdownTimeout bounds the graceful drain Serve performs when
// its context is canceled (default 5s).
func (s *Server) SetShutdownTimeout(d time.Duration) { s.inner.ShutdownTimeout = d }

// Serve accepts connections on ln until ctx is canceled, then shuts
// down gracefully: stop accepting, drain in-flight requests, drain
// the database's transactions (late arrivals get ErrDatabaseClosed, never
// a hang) and close the database. The serve subcommand cancels ctx on
// SIGTERM/SIGINT.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	return s.inner.Serve(ctx, ln)
}
