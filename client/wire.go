// Package client is the thin Go client for a decibel serve endpoint:
// the wire types of the server's HTTP/JSON protocol plus a Client that
// speaks it over net/http. The protocol mirrors the facade — the query
// builder's shapes, transactional commits, branch/merge and schema
// alters — so anything expressible against decibel.DB is expressible
// over the wire.
package client

// Expr is the wire form of a typed predicate: exactly one of Col
// (a comparison leaf), And, Or or Not is set.
//
//	{"col": "price", "op": "lt", "val": 9.5}
//	{"and": [{"col": "qty", "op": "ge", "val": 3}, {"not": {...}}]}
//
// Ops: eq, ne, lt, le, gt, ge, prefix (byte-string prefix match).
// Values follow the column type: JSON numbers for integer and float
// columns, strings for byte-string columns.
type Expr struct {
	Col string `json:"col,omitempty"`
	Op  string `json:"op,omitempty"`
	Val any    `json:"val,omitempty"`

	And []Expr `json:"and,omitempty"`
	Or  []Expr `json:"or,omitempty"`
	Not *Expr  `json:"not,omitempty"`
}

// QueryRequest is POST /v1/query: one query-builder invocation. The
// request names its terminal, first match wins: Agg the scalar fold,
// GroupBy or Aggs the grouped fold, Join the joined tuples, Diff the
// positive diff rows, several Branches or Heads the annotated
// multi-branch rows, and otherwise the single-version rows. Which
// combinations are legal is decided by the planner — Plan.Compile in
// internal/query and the terminal it runs — exactly as for the
// builder: an illegal one answers 400 bad_query, a body that cannot be
// read as a request 400 bad_request.
type QueryRequest struct {
	Table    string   `json:"table"`
	Branches []string `json:"branches,omitempty"` // On(...)
	Heads    bool     `json:"heads,omitempty"`    // Heads()
	At       *int     `json:"at,omitempty"`       // At(n): n-th commit on the branch
	AtCommit uint64   `json:"atCommit,omitempty"` // AtCommit(id): pin an exact snapshot
	Diff     []string `json:"diff,omitempty"`     // Diff(a, b): the diff's two sides, after Branches

	Where   *Expr    `json:"where,omitempty"`
	Select  []string `json:"select,omitempty"`
	OrderBy string   `json:"orderBy,omitempty"`
	Desc    bool     `json:"desc,omitempty"`
	Limit   int      `json:"limit,omitempty"`

	Agg    string `json:"agg,omitempty"` // count | sum | min | max | avg
	AggCol string `json:"aggCol,omitempty"`

	// Join composes N-way equi-joins (the builder's JoinOn): each
	// clause adds one relation joined to the ones before it. The root
	// table is relation 0; tuples come back in the Tuples field, one
	// row per relation in composition order.
	Join []JoinClause `json:"join,omitempty"`

	// GroupBy makes the query a grouped aggregation over the named
	// columns (the builder's GroupBy): groups come back in the Groups
	// field in first-arrival order, folding Aggs per group.
	GroupBy []string    `json:"groupBy,omitempty"`
	Aggs    []AggClause `json:"aggs,omitempty"`
}

// JoinClause is one joined relation (the builder's JoinOn leg): its
// table, the branch to scan (empty inherits the root query's branch),
// the equi-join key On = [leftCol, rightCol] — leftCol names a column
// of the relations composed before this one, rightCol a column of this
// clause's table — plus the leg's own predicate and projection, pushed
// into the leg's scan.
type JoinClause struct {
	Table  string    `json:"table"`
	Branch string    `json:"branch,omitempty"`
	On     [2]string `json:"on"`
	Where  *Expr     `json:"where,omitempty"`
	Select []string  `json:"select,omitempty"`
}

// AggClause is one per-group aggregate for a GroupBy query:
// count | sum | min | max | avg, with Col naming the folded column
// (unused for count).
type AggClause struct {
	Agg string `json:"agg"`
	Col string `json:"col,omitempty"`
}

// GroupWire is one group of a GroupBy query: the group-by column
// values in GroupBy order (numbers, or strings for byte-string
// columns) and one float64 per requested aggregate, in Aggs order.
type GroupWire struct {
	Key  []any     `json:"key"`
	Aggs []float64 `json:"aggs,omitempty"`
}

// Row is one emitted record, keyed by column name. Integer columns
// arrive as JSON numbers (decode with json.Number or into int64),
// float columns as numbers, byte-string columns as strings. Annotated
// multi-branch rows carry the live branch names under "_branches".
type Row map[string]any

// QueryResponse answers /v1/query. For single-branch reads Commit/Seq
// identify the snapshot the rows were read at: the server pins the
// branch head it resolved at request start, so re-issuing the query
// with AtCommit=Commit re-reads the identical version no matter how
// many commits landed since.
type QueryResponse struct {
	Commit uint64  `json:"commit,omitempty"` // pinned commit ID (single-branch reads)
	Seq    int     `json:"seq,omitempty"`    // its per-branch sequence number
	Branch string  `json:"branch,omitempty"` // the branch it is (or was) the head of
	Rows   []Row   `json:"rows,omitempty"`
	Agg    float64 `json:"agg,omitempty"` // aggregate result when Agg was set

	// Tuples answers join queries: one entry per joined tuple, itself
	// one Row per relation in composition order (index 0 = the root
	// table), emitted in ascending composite primary-key order.
	Tuples [][]Row `json:"tuples,omitempty"`

	// Groups answers groupBy queries, in first-arrival order.
	Groups []GroupWire `json:"groups,omitempty"`

	Count int `json:"count"` // rows/tuples/groups emitted (== Agg for count)
}

// Op is one write inside a commit: op "insert" upserts Values as a
// record (column name -> value, every head-schema column present
// except omitted ones defaulting to zero values is an error — the
// server validates), op "delete" removes PK.
type Op struct {
	Op     string         `json:"op"` // insert | delete
	Table  string         `json:"table"`
	Values map[string]any `json:"values,omitempty"` // insert
	PK     int64          `json:"pk,omitempty"`     // delete
}

// CommitRequest is POST /v1/commit: one transaction against a branch
// head — all ops commit atomically or none do, exactly the facade's
// Commit(branch, fn) semantics (the branch's exclusive lock is held
// for the span of the ops).
type CommitRequest struct {
	Branch  string `json:"branch"`
	Message string `json:"message,omitempty"`
	Ops     []Op   `json:"ops"`
}

// CommitResponse reports the commit that the transaction produced.
type CommitResponse struct {
	Commit uint64 `json:"commit"`
	Seq    int    `json:"seq"`
}

// BranchRequest is POST /v1/branch: create branch Name from the
// current head of From.
type BranchRequest struct {
	From string `json:"from"`
	Name string `json:"name"`
}

// BranchResponse describes one branch (also the element of
// /v1/branches listings).
type BranchResponse struct {
	Name   string `json:"name"`
	Head   uint64 `json:"head"`
	Commit int    `json:"commits"` // commits made on the branch
}

// MergeRequest is POST /v1/merge: merge From's head into Into.
// Kind "threeway" (default) or "twoway"; Precedence "into" (default)
// or "from" selects which side wins conflicting fields.
type MergeRequest struct {
	Into       string `json:"into"`
	From       string `json:"from"`
	Kind       string `json:"kind,omitempty"`
	Precedence string `json:"precedence,omitempty"`
	Message    string `json:"message,omitempty"`
}

// MergeResponse reports the merge commit and the paper's merge
// statistics.
type MergeResponse struct {
	Commit    uint64 `json:"commit"`
	Merged    int    `json:"merged"`
	Conflicts int    `json:"conflicts"`
}

// ColumnDef describes a column for /v1/alter adds and /v1/tables
// listings. Type: int32 | int64 | float64 | bytes (Cap required for
// bytes). Default is the value pre-existing rows read back.
type ColumnDef struct {
	Name    string `json:"name"`
	Type    string `json:"type"`
	Cap     int    `json:"cap,omitempty"`
	Default any    `json:"default,omitempty"`
}

// AlterRequest is POST /v1/alter: one schema-change transaction on a
// branch — exactly one of Add or Drop.
type AlterRequest struct {
	Branch string     `json:"branch"`
	Table  string     `json:"table"`
	Add    *ColumnDef `json:"add,omitempty"`
	Drop   string     `json:"drop,omitempty"`
}

// TableResponse describes one table (the element of /v1/tables).
type TableResponse struct {
	Name    string      `json:"name"`
	Columns []ColumnDef `json:"columns"`
}

// ErrorResponse is every non-2xx body: a message and the sentinel the
// server mapped it from (e.g. "no_such_branch"), stable for clients
// to switch on.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}
