package server

import (
	"net/http"
	"slices"

	"decibel/client"
	"decibel/internal/core"
	iquery "decibel/internal/query"
	"decibel/internal/record"
	"decibel/internal/vgraph"
)

// handleQuery is POST /v1/query: one query-builder invocation. The
// request translates into a plan (planOf) and runs the terminal it
// names — agg the scalar Aggregate, groupBy or aggs the grouped
// GroupScan, join the Tuples, diff the diff rows, several branches or
// heads the Annotated scan, and otherwise the rows — and the planner
// and that terminal alone decide whether the shape is legal.
//
// Snapshot isolation: a single-branch read resolves the branch's head
// commit ID once, here, and compiles the plan pinned to it
// (Plan.AtCommit), so the whole scan observes exactly that version —
// lock-free, because commit history is immutable — no matter how many
// commits land on the branch while it runs. Multi-branch and diff
// shapes read the engines' internally-snapshotted head bitmaps
// instead (still lock-free; the union snapshot is taken under the
// engine mutex, not a branch lock).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) error {
	var req client.QueryRequest
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	plan, err := planOf(&req, s.schemaOf)
	if err != nil {
		return err
	}

	resp := client.QueryResponse{}
	// Pin single-branch head reads to the head resolved now.
	if !plan.Diff && !plan.AllHeads && len(plan.Branches) == 1 && plan.AtSeq < 0 {
		b, err := s.db.BranchNamed(plan.Branches[0])
		if err != nil {
			return err
		}
		if plan.AtCommit == vgraph.None {
			// Graph().Head, not b.Head: the live Branch struct is advanced
			// in place by concurrent commits.
			if head, ok := s.db.Graph().Head(b.ID); ok {
				plan.AtCommit = head
			}
		}
		if cm, ok := s.db.Graph().Commit(plan.AtCommit); ok {
			resp.Commit, resp.Seq, resp.Branch = uint64(cm.ID), cm.Seq, plan.Branches[0]
		}
	}

	c, err := plan.Compile(s.db)
	if err != nil {
		return err
	}
	ctx := r.Context()
	row := func(rec *record.Record) bool {
		resp.Rows = append(resp.Rows, rowOf(rec))
		return true
	}
	switch {
	case req.Agg != "":
		kind, err := aggKindOf(req.Agg)
		if err != nil {
			return err
		}
		v, err := c.Aggregate(ctx, kind, req.AggCol)
		if err != nil {
			return err
		}
		resp.Agg = v
		if kind == iquery.AggCount {
			resp.Count = int(v)
		}
		return reply(w, &resp)
	case len(req.GroupBy) > 0 || len(req.Aggs) > 0:
		specs := make([]iquery.AggSpec, len(req.Aggs))
		for i, a := range req.Aggs {
			kind, err := aggKindOf(a.Agg)
			if err != nil {
				return err
			}
			specs[i] = iquery.AggSpec{Kind: kind, Col: a.Col}
		}
		err = c.GroupScan(ctx, specs, func(g *iquery.GroupRow) bool {
			gw := client.GroupWire{Key: make([]any, len(g.Key)), Aggs: g.Aggs}
			for i, v := range g.Key {
				if b, ok := v.([]byte); ok {
					gw.Key[i] = string(b)
				} else {
					gw.Key[i] = v
				}
			}
			resp.Groups = append(resp.Groups, gw)
			return true
		})
	case len(req.Join) > 0:
		err = c.JoinTuples(ctx, func(t iquery.JoinTuple) bool {
			rows := make([]client.Row, len(t))
			for i, rec := range t {
				rows[i] = rowOf(rec)
			}
			resp.Tuples = append(resp.Tuples, rows)
			return true
		})
	case plan.Diff:
		err = c.EmitDiffRows(ctx, row)
	case plan.AllHeads || len(plan.Branches) > 1:
		err = c.Annotated(ctx, func(rec *record.Record, branches []string) bool {
			out := rowOf(rec)
			out["_branches"] = slices.Clone(branches)
			resp.Rows = append(resp.Rows, out)
			return true
		})
	default:
		err = c.EmitRows(ctx, row)
	}
	if err != nil {
		return err
	}
	resp.Count = len(resp.Rows) + len(resp.Tuples) + len(resp.Groups)
	return reply(w, &resp)
}

// schemaOf returns the named table's newest schema, the one request
// values are coerced against.
func (s *Server) schemaOf(table string) (*record.Schema, error) {
	t, err := s.db.TableByName(table)
	if err != nil {
		return nil, err
	}
	return t.Schema(), nil
}

// aggKindOf maps a wire aggregate name to its plan kind.
func aggKindOf(name string) (iquery.AggKind, error) {
	if kind, ok := iquery.AggKindNamed(name); ok {
		return kind, nil
	}
	return 0, badRequestf("unknown aggregate %q", name)
}

// handleCommit is POST /v1/commit: one transaction against a branch
// head through core's Transact — the ops apply under the branch's
// exclusive lock and commit atomically; a failing op's error is the
// response, and every key the ops touched is rolled back.
func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request) error {
	var req client.CommitRequest
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	if len(req.Ops) == 0 {
		return badRequestf("commit has no ops")
	}
	b, err := s.db.BranchNamed(req.Branch)
	if err != nil {
		return err
	}
	cm, err := s.db.Transact(r.Context(), req.Branch, func(tx *core.Tx) error {
		if req.Message != "" {
			tx.SetMessage(req.Message)
		}
		for _, op := range req.Ops {
			var err error
			switch op.Op {
			case "insert":
				var t *core.Table
				if t, err = s.db.TableByName(op.Table); err == nil {
					// Writes carry the schema of the branch's head epoch —
					// not the globally newest one, which another branch's
					// evolution may have advanced past this branch.
					var rec *record.Record
					if rec, err = buildRecord(t.SchemaAt(t.BranchEpoch(b.ID)), op.Values); err == nil {
						err = tx.Insert(op.Table, rec)
					}
				}
			case "delete":
				err = tx.Delete(op.Table, op.PK)
			default:
				err = badRequestf("unknown op %q", op.Op)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	commits.Add(1)
	return reply(w, &client.CommitResponse{Commit: uint64(cm.ID), Seq: cm.Seq})
}

// handleBranch is POST /v1/branch: create a branch from the current
// head of another (core holds the parent's lock for the span).
func (s *Server) handleBranch(w http.ResponseWriter, r *http.Request) error {
	var req client.BranchRequest
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	if req.From == "" || req.Name == "" {
		return badRequestf("branch needs from and name")
	}
	b, err := s.db.BranchFromHead(r.Context(), req.Name, req.From)
	if err != nil {
		return err
	}
	return reply(w, s.branchResponse(b))
}

// handleMerge is POST /v1/merge: core's name-based merge, which takes
// the locks of both branches in branch-ID order.
func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) error {
	var req client.MergeRequest
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	kind := core.ThreeWay
	switch req.Kind {
	case "", "threeway":
	case "twoway":
		kind = core.TwoWay
	default:
		return badRequestf("unknown merge kind %q", req.Kind)
	}
	intoWins := true
	switch req.Precedence {
	case "", "into":
	case "from":
		intoWins = false
	default:
		return badRequestf("unknown merge precedence %q", req.Precedence)
	}
	message := req.Message
	if message == "" {
		message = "merge " + req.From + " into " + req.Into
	}
	cm, stats, err := s.db.MergeContext(r.Context(), req.Into, req.From, message, kind, intoWins)
	if err != nil {
		return err
	}
	commits.Add(1)
	return reply(w, &client.MergeResponse{
		Commit:    uint64(cm.ID),
		Merged:    stats.Materialized,
		Conflicts: stats.Conflicts,
	})
}

// handleAlter is POST /v1/alter: one schema-change transaction —
// exactly one add or drop, taking effect at its commit.
func (s *Server) handleAlter(w http.ResponseWriter, r *http.Request) error {
	var req client.AlterRequest
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	if (req.Add == nil) == (req.Drop == "") {
		return badRequestf("alter takes exactly one of add or drop")
	}
	cm, err := s.db.Transact(r.Context(), req.Branch, func(tx *core.Tx) error {
		if req.Drop != "" {
			tx.SetMessage("alter " + req.Table + ": drop " + req.Drop)
			return tx.DropColumn(req.Table, req.Drop)
		}
		col, def, err := parseColumnDef(req.Add)
		if err != nil {
			return err
		}
		tx.SetMessage("alter " + req.Table + ": add " + col.Name)
		return tx.AddColumn(req.Table, col, core.Default(def))
	})
	if err != nil {
		return err
	}
	commits.Add(1)
	return reply(w, &client.CommitResponse{Commit: uint64(cm.ID), Seq: cm.Seq})
}

// handleTables is GET /v1/tables.
func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) error {
	tables := s.db.Tables()
	out := make([]client.TableResponse, 0, len(tables))
	for _, t := range tables {
		sch := t.Schema()
		tr := client.TableResponse{Name: t.Name()}
		for i := 0; i < sch.NumColumns(); i++ {
			tr.Columns = append(tr.Columns, columnDef(sch.Column(i)))
		}
		out = append(out, tr)
	}
	return reply(w, out)
}

// handleCompact is POST /v1/compact: run one compaction pass over the
// whole dataset and report what it accomplished. The pass runs inline
// on the request — concurrent reads keep serving off their pinned
// segment snapshots throughout.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) error {
	st, err := s.db.Compact()
	if err != nil {
		return err
	}
	return reply(w, map[string]int64{
		"segments_compressed": st.SegmentsCompressed,
		"pages_compressed":    st.PagesCompressed,
		"bytes_reclaimed":     st.BytesReclaimed,
	})
}

// handleBranches is GET /v1/branches.
func (s *Server) handleBranches(w http.ResponseWriter, r *http.Request) error {
	branches := s.db.Branches()
	out := make([]client.BranchResponse, 0, len(branches))
	for _, b := range branches {
		out = append(out, *s.branchResponse(b))
	}
	return reply(w, out)
}

func (s *Server) branchResponse(b *vgraph.Branch) *client.BranchResponse {
	head, _ := s.db.Graph().Head(b.ID)
	return &client.BranchResponse{
		Name:   b.Name,
		Head:   uint64(head),
		Commit: s.db.Graph().NumCommitsOn(b.ID),
	}
}
