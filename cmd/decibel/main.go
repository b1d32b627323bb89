// Command decibel is a small CLI over a Decibel dataset: init, branch,
// commit, insert, delete, scan, checkout, diff, merge and log against a
// dataset directory, with a choice of storage engine resolved through
// the engine registry. Branches and historical versions are always
// addressed by name — the CLI is written entirely against the
// name-based facade API.
//
// Usage:
//
//	decibel -dir data -engine hybrid init price:float64,sku:bytes16
//	decibel -dir data insert <branch> <pk> <v1> <v2> ...
//	decibel -dir data load <branch> <pk:v1:v2...> <pk:v1:v2...> ...
//	decibel -dir data delete <branch> <pk>
//	decibel -dir data commit <branch> [message]
//	decibel -dir data branch <name> <from-branch>
//	decibel -dir data scan <branch>
//	decibel -dir data checkout <branch>[@<n>]
//	decibel -dir data diff <branchA> <branchB>
//	decibel -dir data merge <into> <other> [two|three] [first|second]
//	decibel -dir data alter <branch> add price:float64=9.5
//	decibel -dir data alter <branch> drop <col>
//	decibel -dir data select [table] -branch a,b -where 'price<9.5' -cols sku,price
//	decibel -dir data select [table] -diff dev,master -where 'price<9.5' -order price:desc -limit 10
//	decibel -dir data log [branch]
//	decibel -dir data stats [table]
//	decibel help
//
// Column types in init are name:type pairs; type is one of int32,
// int64, float64 or bytes<N> (a byte string of up to N bytes) and
// defaults to int64. checkout <branch>@<n> reads the n-th commit made
// on the branch (zero-based), the session time-travel of Section 2.2.3.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"decibel"
)

const usageText = `usage: decibel [flags] <command> [args]

commands:
  init <col:type,...>        create the table and the master branch
                             (types: int32 | int64 | float64 | bytes<N>;
                             default int64; the int64 "id" key is implicit)
  insert <branch> <pk> <v...>  upsert a record into a branch, committed
                             as one transaction on the branch head
  load <branch> <pk:v:...> ...  batch-insert one record per argument
                             (colon-separated values), one transaction
  delete <branch> <pk>       remove a key from a branch, committed
  commit <branch> [message]  snapshot the branch head as a new version
  branch <name> <from>       create branch <name> from the head of <from>
  scan <branch>              print the records live at a branch head
                             (select -branch <branch>)
  checkout <branch>[@<n>]    print the records of the n-th commit made on
                             the branch (zero-based; no @<n> reads the head;
                             select -branch <branch> -at <n> under a header)
  diff <branchA> <branchB>   print the symmetric difference of two heads
  merge <into> <other> [two|three] [first|second]
                             merge <other> into <into> (default three-way,
                             <into> wins conflicts)
  alter <branch> add <name:type[=default]>
                             add a column on the branch (committed as a
                             schema-change version; existing rows read
                             back the default, no data is rewritten)
  alter <branch> drop <col>  drop a column on the branch (logical: reads
                             of earlier versions still see it)
  select [table]             run a versioned query (defaults to -table):
                               -branch a[,b,...]  branch head(s) to scan
                               -heads             scan every branch head
                               -at <n>            the n-th commit on the branch
                               -diff a,b          records at a's head but not b's
                                                  (-where runs inside the diff scan)
                               -where <expr>      conjuncts joined by &&, each
                                                  col{=|!=|<|<=|>|>=|^=}value
                               -cols a,b          project named columns
                               -order col[:desc]  sort the output by a column
                               -limit <n>         emit at most n rows
                               -count             print the count only
                               -join t:l[=r][@b]  equi-join table t: left col l
                                                  matches t's col r (default l),
                                                  scanning t's branch b (default:
                                                  the query's); repeat for N-way
                               -group-by a[,b]    group rows (or joined tuples)
                                                  by the named columns
                               -agg <list>        grouped aggregates, e.g.
                                                  count,sum:price,avg:price
  compact                    run one compaction pass: re-encode frozen
                             segments as compressed pages
  serve                      serve the dataset over HTTP/JSON until
                             SIGINT/SIGTERM, then drain and close:
                               -addr <host:port>  listen address
                                                  (default localhost:8527)
  log [branch]               list branches and commit counts; with a
                             branch, its commits (seq, id, time, message)
  stats [table]              storage statistics; with a table, its
                             per-segment summaries (encoding, raw vs
                             on-disk bytes, tombstones, zone maps)
  help                       print this help

flags:
  -dir <path>     dataset directory (default "decibel-data")
  -engine <name>  storage engine (default "` + decibel.DefaultEngine + `")
  -table <name>   table name (default "r")
`

func main() {
	dir := flag.String("dir", "decibel-data", "dataset directory")
	engine := flag.String("engine", decibel.DefaultEngine,
		"storage engine: "+strings.Join(decibel.Engines(), " | "))
	table := flag.String("table", "r", "table name")
	flag.Usage = func() { fmt.Fprint(os.Stderr, usageText) }
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if flag.Arg(0) == "help" {
		fmt.Print(usageText)
		return
	}
	if err := run(*dir, *engine, *table, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "decibel:", err)
		os.Exit(1)
	}
}

// parseSchema turns "price:float64,sku:bytes16,qty" into a schema with
// the implicit int64 "id" primary key in front (an explicit leading
// "id" or "id:int64" is accepted and folded into it).
func parseSchema(spec string) (*decibel.Schema, error) {
	b := decibel.NewSchema().Int64("id")
	for i, part := range strings.Split(spec, ",") {
		col, err := parseColumn(part)
		if err != nil {
			return nil, err
		}
		switch {
		case i == 0 && col.Name == "id" && col.Type == decibel.Int64: // the implicit key, spelled out
		case col.Type == decibel.Int32:
			b = b.Int32(col.Name)
		case col.Type == decibel.Float64:
			b = b.Float64(col.Name)
		case col.Type == decibel.Bytes:
			b = b.Bytes(col.Name, col.Size)
		default:
			b = b.Int64(col.Name)
		}
	}
	return b.Build()
}

// parseColumn turns one "name:type" spec into a column descriptor —
// the type grammar of init and alter add.
func parseColumn(spec string) (decibel.Column, error) {
	name, typ, _ := strings.Cut(strings.TrimSpace(spec), ":")
	if name == "" {
		return decibel.Column{}, fmt.Errorf("empty column name in %q", spec)
	}
	switch {
	case typ == "" || typ == "int64":
		return decibel.Int64Column(name), nil
	case typ == "int32":
		return decibel.Int32Column(name), nil
	case typ == "float64":
		return decibel.Float64Column(name), nil
	case strings.HasPrefix(typ, "bytes"):
		size, err := strconv.Atoi(typ[len("bytes"):])
		if err != nil {
			return decibel.Column{}, fmt.Errorf("column %q: bytes type needs a size, e.g. bytes16", name)
		}
		return decibel.BytesColumn(name, size), nil
	default:
		return decibel.Column{}, fmt.Errorf("column %q: unknown type %q (want int32|int64|float64|bytes<N>)", name, typ)
	}
}

// parseValue converts a textual value to the Go value the column
// holds — int64, float64, or the string itself for a byte string — for
// inserted records, column defaults and predicates alike. Ranges and
// capacities are checked where the value is encoded (Record.SetValue,
// a column default), not here.
func parseValue(col decibel.Column, raw string) (any, error) {
	switch col.Type {
	case decibel.Float64:
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, fmt.Errorf("column %q: %w", col.Name, err)
		}
		return f, nil
	case decibel.Bytes:
		return raw, nil
	}
	n, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("column %q: %w", col.Name, err)
	}
	return n, nil
}

// parseRecord builds a record of the schema from textual values in
// column order; values past the last column are ignored.
func parseRecord(schema *decibel.Schema, values []string) (*decibel.Record, error) {
	rec := decibel.NewRecord(schema)
	for i, raw := range values[:min(len(values), schema.NumColumns())] {
		v, err := parseValue(schema.Column(i), raw)
		if err != nil {
			return nil, err
		}
		if err := rec.SetValue(i, v); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// branchSchema returns the table's schema at the branch's head epoch:
// a write encodes under the schema its branch has reached, which
// another branch's evolution may have moved past.
func branchSchema(db *decibel.DB, table, branch string) (*decibel.Schema, error) {
	t, err := db.TableByName(table)
	if err != nil {
		return nil, err
	}
	b, err := db.BranchNamed(branch)
	if err != nil {
		return nil, err
	}
	return t.SchemaAt(t.BranchEpoch(b.ID)), nil
}

func run(dir, engine, table string, args []string) error {
	opts := []decibel.Option{decibel.WithEngine(engine)}
	// compact runs a pass on demand; serve exposes POST /v1/compact.
	// Both need the subsystem enabled in manual mode.
	if args[0] == "compact" || args[0] == "serve" {
		opts = append(opts, decibel.WithCompaction("manual"))
	}
	db, err := decibel.Open(dir, opts...)
	if err != nil {
		return err
	}
	defer db.Close()
	cmd, rest := args[0], args[1:]

	switch cmd {
	case "init":
		spec := "value"
		if len(rest) > 0 {
			spec = rest[0]
		}
		s, err := parseSchema(spec)
		if err != nil {
			return err
		}
		if _, err := db.CreateTable(table, s); err != nil {
			return err
		}
		master, c0, err := db.Init("init")
		if err != nil {
			return err
		}
		fmt.Printf("initialized %s: branch %q, commit %d\n", dir, master.Name, c0.ID)
		return nil

	case "insert":
		if len(rest) < 2 {
			return fmt.Errorf("insert <branch> <pk> <values...>")
		}
		schema, err := branchSchema(db, table, rest[0])
		if err != nil {
			return err
		}
		rec, err := parseRecord(schema, rest[1:])
		if err != nil {
			return err
		}
		c, err := db.Commit(rest[0], func(tx *decibel.Tx) error {
			tx.SetMessage("insert pk " + rest[1])
			return tx.Insert(table, rec)
		})
		if err != nil {
			return err
		}
		fmt.Printf("commit %d on %s\n", c.ID, rest[0])
		return nil

	case "load":
		if len(rest) < 2 {
			return fmt.Errorf("load <branch> <pk:v:...> ...")
		}
		schema, err := branchSchema(db, table, rest[0])
		if err != nil {
			return err
		}
		recs := make([]*decibel.Record, 0, len(rest)-1)
		for _, spec := range rest[1:] {
			rec, err := parseRecord(schema, strings.Split(spec, ":"))
			if err != nil {
				return err
			}
			recs = append(recs, rec)
		}
		c, err := db.Commit(rest[0], func(tx *decibel.Tx) error {
			tx.SetMessage(fmt.Sprintf("load %d records", len(recs)))
			return tx.InsertBatch(table, recs)
		})
		if err != nil {
			return err
		}
		fmt.Printf("commit %d on %s (%d records)\n", c.ID, rest[0], len(recs))
		return nil

	case "delete":
		if len(rest) != 2 {
			return fmt.Errorf("delete <branch> <pk>")
		}
		pk, err := strconv.ParseInt(rest[1], 10, 64)
		if err != nil {
			return err
		}
		c, err := db.Commit(rest[0], func(tx *decibel.Tx) error {
			tx.SetMessage("delete pk " + rest[1])
			return tx.Delete(table, pk)
		})
		if err != nil {
			return err
		}
		fmt.Printf("commit %d on %s\n", c.ID, rest[0])
		return nil

	case "commit":
		if len(rest) < 1 {
			return fmt.Errorf("commit <branch> [message]")
		}
		branch := rest[0]
		msg := strings.Join(rest[1:], " ")
		c, err := db.Commit(branch, func(tx *decibel.Tx) error {
			if msg != "" {
				tx.SetMessage(msg)
			}
			return nil // snapshot the branch head as-is
		})
		if err != nil {
			return err
		}
		fmt.Printf("commit %d on %s\n", c.ID, branch)
		return nil

	case "branch":
		if len(rest) != 2 {
			return fmt.Errorf("branch <name> <from-branch>")
		}
		b, err := db.Branch(rest[1], rest[0])
		if err != nil {
			return err
		}
		fmt.Printf("branch %q created from %q (head commit %d)\n", b.Name, rest[1], b.From)
		return nil

	case "scan":
		if len(rest) != 1 {
			return fmt.Errorf("scan <branch>")
		}
		return runSelect(db, table, []string{"-branch", rest[0]})

	case "checkout":
		if len(rest) != 1 {
			return fmt.Errorf("checkout <branch>[@<n>]")
		}
		// A read of the branch head, or of its seq'th commit: select's
		// -at is the positional read.
		branch, at, hasAt := strings.Cut(rest[0], "@")
		b, err := db.BranchNamed(branch)
		if err != nil {
			return err
		}
		sel := []string{"-branch", branch}
		id, _ := db.Graph().Head(b.ID)
		c, _ := db.Graph().Commit(id)
		if hasAt {
			seq, err := strconv.Atoi(at)
			if err != nil {
				return fmt.Errorf("checkout %s: %q is not a commit number", rest[0], at)
			}
			var ok bool
			if c, ok = db.Graph().CommitAt(b.ID, seq); !ok {
				return fmt.Errorf("%w: %s", decibel.ErrNoSuchCommit, rest[0])
			}
			sel = append(sel, "-at", strconv.Itoa(seq))
		}
		fmt.Printf("checked out %s: commit %d (%q)\n", rest[0], c.ID, c.Message)
		return runSelect(db, table, sel)

	case "diff":
		if len(rest) != 2 {
			return fmt.Errorf("diff <branchA> <branchB>")
		}
		diff, diffErr := db.Diff(table, rest[0], rest[1])
		for rec, inA := range diff {
			side := "+B"
			if inA {
				side = "+A"
			}
			fmt.Printf("%s %s\n", side, rec.String())
		}
		return diffErr()

	case "alter":
		// alter <branch> add <name:type[=default]> | alter <branch> drop <col>
		if len(rest) < 3 {
			return fmt.Errorf("alter <branch> add <name:type[=default]> | alter <branch> drop <col>")
		}
		branch, op := rest[0], rest[1]
		switch op {
		case "add":
			spec, defRaw, hasDef := strings.Cut(rest[2], "=")
			col, err := parseColumn(spec)
			if err != nil {
				return err
			}
			var defs []decibel.ColumnDefault
			if hasDef {
				v, err := parseValue(col, defRaw)
				if err != nil {
					return err
				}
				defs = append(defs, decibel.Default(v))
			}
			c, err := db.Commit(branch, func(tx *decibel.Tx) error {
				tx.SetMessage("add column " + col.Name)
				return tx.AddColumn(table, col, defs...)
			})
			if err != nil {
				return err
			}
			fmt.Printf("commit %d on %s: added column %s (schema v%d); existing rows read back the default\n",
				c.ID, branch, col.String(), c.SchemaVer)
		case "drop":
			c, err := db.Commit(branch, func(tx *decibel.Tx) error {
				tx.SetMessage("drop column " + rest[2])
				return tx.DropColumn(table, rest[2])
			})
			if err != nil {
				return err
			}
			fmt.Printf("commit %d on %s: dropped column %q (schema v%d); earlier versions keep it\n",
				c.ID, branch, rest[2], c.SchemaVer)
		default:
			return fmt.Errorf("alter: unknown operation %q (want add or drop)", op)
		}
		return nil

	case "merge":
		if len(rest) < 2 {
			return fmt.Errorf("merge <into> <other> [two|three] [first|second]")
		}
		opts := []decibel.MergeOption{decibel.WithMergeMessage("merge " + rest[1])}
		if len(rest) > 2 && rest[2] == "two" {
			opts = append(opts, decibel.WithMergeKind(decibel.TwoWay))
		}
		if len(rest) > 3 && rest[3] == "second" {
			opts = append(opts, decibel.WithMergePrecedence(false))
		}
		mc, st, err := db.Merge(rest[0], rest[1], opts...)
		if err != nil {
			return err
		}
		fmt.Printf("merge commit %d: %d conflicts, %d records changed in %s, %d in %s\n",
			mc.ID, st.Conflicts, st.ChangedA, rest[0], st.ChangedB, rest[1])
		return nil

	case "compact":
		st, err := db.Compact()
		if err != nil {
			return err
		}
		fmt.Printf("compacted: %d segments compressed, %d pages written, %d bytes reclaimed\n",
			st.SegmentsCompressed, st.PagesCompressed, st.BytesReclaimed)
		return nil

	case "select":
		return runSelect(db, table, rest)

	case "serve":
		return runServe(db, rest)

	case "log":
		if len(rest) == 1 {
			b, err := db.BranchNamed(rest[0])
			if err != nil {
				return err
			}
			commits := db.Graph().CommitsOnBranch(b.ID)
			// The schema-change marker compares each commit against the
			// previous one on the branch, seeded from the branch point so
			// a change in the branch's first commit is marked too.
			prevVer := -1
			if fc, ok := db.Graph().Commit(b.From); ok {
				prevVer = fc.SchemaVer
			}
			for _, c := range commits {
				when := "-"
				if c.Time != 0 {
					when = time.Unix(c.Time, 0).UTC().Format(time.RFC3339)
				}
				marker := " "
				if c.ID == b.Head {
					marker = "*"
				}
				// Mark commits that evolved (or adopted, via merge) the
				// schema relative to the branch's previous commit.
				schemaNote := ""
				if prevVer >= 0 && c.SchemaVer != prevVer {
					schemaNote = fmt.Sprintf("  [schema v%d]", c.SchemaVer)
				}
				prevVer = c.SchemaVer
				fmt.Printf("%s %s@%-3d commit %-4d %s  %s%s\n", marker, rest[0], c.Seq, c.ID, when, c.Message, schemaNote)
			}
			fmt.Printf("checkout any with: checkout %s@<n>\n", rest[0])
			return nil
		}
		for _, b := range db.Graph().Branches() {
			status := "active"
			if !b.Active {
				status = "retired"
			}
			fmt.Printf("branch %-12s head=commit %-4d (%s)\n", b.Name, b.Head, status)
		}
		fmt.Printf("%d commits total\n", db.Graph().NumCommits())
		return nil

	case "stats":
		st, err := db.Stats()
		if err != nil {
			return err
		}
		fmt.Printf("engine:         %s (registered: %s)\n", engine, strings.Join(decibel.Engines(), ", "))
		fmt.Printf("records:        %d (%d live across heads)\n", st.Records, st.LiveRecords)
		fmt.Printf("data bytes:     %d\n", st.DataBytes)
		fmt.Printf("index bytes:    %d (%d key-index entries)\n", st.IndexBytes, st.IndexEntries)
		fmt.Printf("history bytes:  %d\n", st.CommitBytes)
		fmt.Printf("segments:       %d\n", st.SegmentCount)
		fmt.Printf("pool bytes:     %d\n", st.PoolBytes)
		// stats <table>: per-segment zone-map summaries (what predicate
		// pushdown prunes scans with).
		if len(rest) == 1 {
			t, err := db.TableByName(rest[0])
			if err != nil {
				return err
			}
			segs := t.SegmentStats()
			fmt.Printf("\ntable %q: %d segments (zone maps; * marks open append heads)\n", rest[0], len(segs))
			for _, sg := range segs {
				lineage := ""
				if sg.LineageDepth > 0 {
					// Version-first: the lineage depth a scan rooted here
					// resolves through, and the merge override-table size.
					lineage = fmt.Sprintf(" lineage=%d ovr=%d", sg.LineageDepth, sg.Overrides)
				}
				fmt.Printf("  %-22s rows=%-7d schema-cols=%d enc=%-4s raw=%-9d disk=%-9d tombstones=%d%s\n",
					sg.Name, sg.Rows, sg.Cols, sg.Encoding, sg.RawBytes, sg.DiskBytes, sg.Tombstones, lineage)
				for _, z := range sg.Zones {
					fmt.Printf("    %-14s [%s .. %s]\n", z.Column, z.Min, z.Max)
				}
			}
		}
		return nil

	default:
		return fmt.Errorf("unknown command %q (try: decibel help)", cmd)
	}
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// parseJoin parses one -join spec, table:left_col[=right_col][@branch],
// into the leg query and its join key. The right column defaults to
// the left one; the branch defaults to the root query's.
func parseJoin(db *decibel.DB, spec string) (*decibel.Query, decibel.JoinKey, error) {
	tbl, rest, ok := strings.Cut(spec, ":")
	if !ok || tbl == "" || rest == "" {
		return nil, decibel.JoinKey{}, fmt.Errorf("-join wants table:left_col[=right_col][@branch], got %q", spec)
	}
	branch := ""
	if i := strings.LastIndexByte(rest, '@'); i >= 0 {
		rest, branch = rest[:i], rest[i+1:]
	}
	left, right, ok := strings.Cut(rest, "=")
	if !ok {
		right = left
	}
	if left == "" || right == "" {
		return nil, decibel.JoinKey{}, fmt.Errorf("-join %q: empty join column", spec)
	}
	jq := db.Query(tbl)
	if branch != "" {
		jq = jq.On(branch)
	}
	return jq, decibel.On(left, right), nil
}

// parseAggs parses the -agg list (count,sum:col,min:col,max:col,avg:col)
// into aggregate specs plus the labels the group output prints.
func parseAggs(s string) ([]decibel.Agg, []string, error) {
	if s == "" {
		return nil, nil, nil
	}
	var aggs []decibel.Agg
	var labels []string
	for _, part := range strings.Split(s, ",") {
		name, col, _ := strings.Cut(part, ":")
		if name != "count" && col == "" {
			return nil, nil, fmt.Errorf("-agg %q wants a column: %s:col", part, name)
		}
		agg, ok := decibel.AggNamed(name, col)
		if !ok {
			return nil, nil, fmt.Errorf("-agg %q: unknown aggregate %q", part, name)
		}
		aggs = append(aggs, agg)
		labels = append(labels, part)
	}
	return aggs, labels, nil
}

// runSelect implements the select command: a versioned query through
// the facade's fluent builder, with branches, predicate and projection
// taken from flags. An explicit positional argument overrides the
// global -table flag. The flags name one terminal, first match wins:
// -diff the Diff, -group-by or -agg the Groups, -join the Tuples (the
// Count with -count), -count the Count, several branches or -heads the
// Annotated scan, and otherwise the Rows.
func runSelect(db *decibel.DB, table string, args []string) error {
	fs := flag.NewFlagSet("select", flag.ContinueOnError)
	branches := fs.String("branch", "", "comma-separated branch name(s) to scan")
	heads := fs.Bool("heads", false, "scan every branch head (HEAD() query)")
	at := fs.Int("at", -1, "historical commit seq on the single branch")
	diff := fs.String("diff", "", "a,b: positive diff — records live at a's head but not b's (-where/-cols apply)")
	where := fs.String("where", "", "predicate: conjuncts joined by &&, each col{=|!=|<|<=|>|>=|^=}value")
	cols := fs.String("cols", "", "comma-separated columns to project")
	order := fs.String("order", "", "column to sort the output by; append ':desc' to reverse")
	limit := fs.Int("limit", 0, "emit at most this many rows (0 = all)")
	count := fs.Bool("count", false, "print only the matching record count")
	var joins multiFlag
	fs.Var(&joins, "join", "equi-join another table: table:left_col[=right_col][@branch] (repeatable)")
	groupBy := fs.String("group-by", "", "comma-separated columns to group by")
	aggList := fs.String("agg", "", "grouped aggregates: count,sum:col,min:col,max:col,avg:col")
	// Accept "select <table> -flags" and "select -flags <table>".
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		table = args[0]
		args = args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		table = fs.Arg(0)
	}

	t, err := db.TableByName(table)
	if err != nil {
		return err
	}
	// Every flag goes into the query as given; the planner and the
	// terminal the flags name decide whether the combination is legal.
	q := db.Query(table)
	if *heads {
		q = q.Heads()
	}
	if *branches != "" {
		q = q.On(strings.Split(*branches, ",")...)
	}
	if !*heads && *branches == "" && *diff == "" {
		q = q.On(decibel.Master)
	}
	if *at >= 0 {
		q = q.At(*at)
	}
	if *where != "" {
		expr, err := parseWhere(t.Schema(), *where)
		if err != nil {
			return err
		}
		q = q.Where(expr)
	}
	if *cols != "" {
		q = q.Select(strings.Split(*cols, ",")...)
	}
	if *order != "" {
		col, dir, _ := strings.Cut(*order, ":")
		if dir != "" && dir != "asc" && dir != "desc" {
			return fmt.Errorf("-order %q: direction must be asc or desc", *order)
		}
		q = q.OrderBy(col, dir == "desc")
	}
	if *limit > 0 {
		q = q.Limit(*limit)
	}
	for _, spec := range joins {
		jq, key, err := parseJoin(db, spec)
		if err != nil {
			return err
		}
		q = q.JoinOn(jq, key)
	}
	var gcols []string
	if *groupBy != "" {
		gcols = strings.Split(*groupBy, ",")
		q = q.GroupBy(gcols...)
	}

	n := 0
	switch {
	case *diff != "":
		// The positive diff of Query 2, with -where evaluated inside the
		// engines' XOR/lineage diff scans (predicate pushdown) and
		// -cols/-order/-limit applied to the emitted side.
		a, b, ok := strings.Cut(*diff, ",")
		if !ok || a == "" || b == "" {
			return fmt.Errorf("-diff wants two branch names: -diff a,b")
		}
		rows, qErr := q.Diff(a, b)
		for rec := range rows {
			if !*count {
				fmt.Println(rec.String())
			}
			n++
		}
		if err := qErr(); err != nil {
			return err
		}
		fmt.Printf("%d records in %s but not %s\n", n, a, b)
		return nil

	case *groupBy != "" || *aggList != "":
		aggs, labels, err := parseAggs(*aggList)
		if err != nil {
			return err
		}
		groups, gErr := q.Groups(aggs...)
		for g := range groups {
			parts := make([]string, 0, len(g.Key)+len(g.Aggs))
			for i, v := range g.Key {
				if b, ok := v.([]byte); ok {
					v = string(b)
				}
				parts = append(parts, fmt.Sprintf("%s=%v", gcols[i], v))
			}
			for i, a := range g.Aggs {
				parts = append(parts, fmt.Sprintf("%s=%g", labels[i], a))
			}
			fmt.Println(strings.Join(parts, " "))
			n++
		}
		if err := gErr(); err != nil {
			return err
		}
		fmt.Printf("%d groups\n", n)
		return nil

	case len(joins) > 0 && !*count:
		tuples, tErr := q.Tuples()
		for tup := range tuples {
			parts := make([]string, len(tup))
			for i, rec := range tup {
				parts[i] = rec.String()
			}
			fmt.Println(strings.Join(parts, " | "))
			n++
		}
		if err := tErr(); err != nil {
			return err
		}
		fmt.Printf("%d joined tuples\n", n)
		return nil

	case *count:
		if n, err = q.Count(); err != nil {
			return err
		}

	case *heads || strings.Contains(*branches, ","):
		annotated, qErr := q.Annotated()
		for rec, active := range annotated {
			fmt.Printf("%s @ %s\n", rec.String(), strings.Join(active, ","))
			n++
		}
		if err := qErr(); err != nil {
			return err
		}

	default:
		rows, qErr := q.Rows()
		for rec := range rows {
			fmt.Println(rec.String())
			n++
		}
		if err := qErr(); err != nil {
			return err
		}
	}
	fmt.Printf("%d records\n", n)
	return nil
}

// whereOps are the recognized comparison spellings, longest first so
// "<=" wins over "<".
var whereOps = []string{"!=", "<=", ">=", "^=", "==", "=", "<", ">"}

// parseWhere parses "price<9.5 && sku^=widget" into a typed predicate,
// resolving each value's Go type from the column's schema type so the
// builder's plan-time validation sees properly typed comparisons.
func parseWhere(schema *decibel.Schema, input string) (decibel.Expr, error) {
	var expr decibel.Expr
	first := true
	for _, conjunct := range strings.Split(input, "&&") {
		conjunct = strings.TrimSpace(conjunct)
		if conjunct == "" {
			continue
		}
		leaf, err := parseConjunct(schema, conjunct)
		if err != nil {
			return expr, err
		}
		if first {
			expr = leaf
			first = false
		} else {
			expr = expr.And(leaf)
		}
	}
	if first {
		return expr, fmt.Errorf("empty -where expression")
	}
	return expr, nil
}

func parseConjunct(schema *decibel.Schema, s string) (decibel.Expr, error) {
	for _, op := range whereOps {
		i := strings.Index(s, op)
		if i <= 0 {
			continue
		}
		name := strings.TrimSpace(s[:i])
		// An unknown column keeps the raw string, so the planner reports
		// ErrNoSuchColumn with the right name.
		var val any = strings.TrimSpace(s[i+len(op):])
		if ci := schema.ColumnIndex(name); ci >= 0 {
			var err error
			if val, err = parseValue(schema.Column(ci), val.(string)); err != nil {
				return decibel.Expr{}, err
			}
		}
		col := decibel.Col(name)
		switch op {
		case "=", "==":
			return col.Eq(val), nil
		case "!=":
			return col.Ne(val), nil
		case "<":
			return col.Lt(val), nil
		case "<=":
			return col.Le(val), nil
		case ">":
			return col.Gt(val), nil
		case ">=":
			return col.Ge(val), nil
		case "^=":
			return col.HasPrefix(val), nil
		}
	}
	return decibel.Expr{}, fmt.Errorf("cannot parse predicate %q (want col{=|!=|<|<=|>|>=|^=}value)", s)
}

// runServe runs the HTTP/JSON serving layer over the open dataset
// until SIGINT/SIGTERM, then drains in-flight requests and transactions
// and closes the database (run's deferred Close is a no-op by then).
func runServe(db *decibel.DB, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8527", "listen address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("decibel serving on http://%s (SIGINT/SIGTERM to stop)\n", ln.Addr())
	return decibel.NewServer(db).Serve(ctx, ln)
}
