// Command orpheus is the OrpheusDB command-line client (Section 2.2): git-
// style version control commands plus SQL, over a store persisted as a single
// file.
//
// Usage:
//
//	orpheus -d store.odb <command> [args]
//
// Commands:
//
//	init -n <cvd> -f <file.csv> [-p pk1,pk2]              create a CVD from a CSV file
//	checkout <cvd> -v <vid>[,vid...] (-t <table> | -f <file.csv>)
//	commit (-t <table> | -f <file.csv> -n <cvd>) -m <message>
//	diff <cvd> -v <v1>,<v2>
//	log <cvd>                                             version graph with metadata
//	branch <cvd> [-c <name> [-v <ref>] | -d <name>]       list/create/delete branches
//	merge <cvd> -from <ref> -into <ref> [-policy fail|ours|theirs] [-m msg]
//	                                                      three-way merge (refs are version ids or branch names)
//	ls                                                    list CVDs
//	drop <cvd>
//	optimize <cvd> [-gamma 2.0] [-mu 1.5]                 run the partition optimizer
//	run [-q <sql> | -s <script.sql>]                      execute SQL (VERSION ... OF CVD supported)
//	create_user <name> | whoami | config -u <user>
//	explain <cvd> -v <vid>                                Table 1 SQL translations
//	serve [-addr :7077] [-quiet] [-fsync always|interval|off]
//	                                                      run the HTTP/JSON versioning service
//	serve -follow <primary-url> [-addr :7078] [-wal-dir <dir>]
//	                                                      run a read-only follower replica of a served primary
//	route -primary <url> -followers <url,url> [-addr :7079]
//	                                                      fan reads across followers, proxy writes to the primary
//	top [-addr http://host:7077] [-interval 2s] [-once]   live workload dashboard over a running serve
//
// The global -wal <dir> flag write-ahead-logs every mutation for crash
// recovery; when <store>.wal already exists it is attached automatically so
// CLI commands stay consistent with a WAL-enabled service. `serve` manages
// its own WAL via -wal/-wal-dir/-fsync flags.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	orpheusdb "orpheusdb"
	"orpheusdb/internal/core"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "orpheus:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	global := flag.NewFlagSet("orpheus", flag.ContinueOnError)
	dbPath := global.String("d", "orpheus.odb", "store file")
	user := global.String("u", "", "act as this user")
	walDir := global.String("wal", "", "write-ahead log directory (default: <store>.wal when it exists)")
	backend := global.String("backend", "", "storage engine: memory|disk (default: match the existing file; new stores use memory)")
	pageBudget := global.Int64("page-budget", 0, "disk backend resident working-set cap in bytes (0 = default)")
	if err := global.Parse(args); err != nil {
		return err
	}
	rest := global.Args()
	if len(rest) == 0 {
		return fmt.Errorf("no command; see -h")
	}
	if rest[0] == "top" {
		// Pure network client: runs against a served store and must not
		// open (or create, or save) a local store file of its own.
		return cmdTop(rest[1:])
	}
	if rest[0] == "route" {
		// Pure network proxy: no local store either.
		return cmdRoute(rest[1:])
	}
	if rest[0] == "serve" && hasFollowFlag(rest[1:]) {
		// A follower manages its own replicated store (bootstrapped from the
		// primary's snapshot); opening — and on exit saving — a local store
		// file here would clobber the path with an empty database.
		return cmdServeFollower(rest[1:])
	}
	// `serve -backend=...` selects the engine too, but the store opens
	// before serve parses its flags — peek the value out of the raw args.
	if rest[0] == "serve" {
		if v, ok := peekFlagValue(rest[1:], "backend"); ok && *backend == "" {
			*backend = v
		}
		if v, ok := peekFlagValue(rest[1:], "page-budget"); ok && *pageBudget == 0 {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return fmt.Errorf("serve: bad -page-budget %q: %w", v, err)
			}
			*pageBudget = n
		}
	}
	store, err := orpheusdb.OpenStoreWithOptions(*dbPath, orpheusdb.StoreOptions{
		Backend:         orpheusdb.BackendKind(*backend),
		PageBudgetBytes: *pageBudget,
	})
	if err != nil {
		return err
	}
	// Attach the WAL when asked for — or when the store already has one, so
	// CLI mutations stay consistent with a concurrently-served log (saving a
	// snapshot without replaying the log tail would double-apply it later).
	dir := *walDir
	if dir == "" {
		if fi, err := os.Stat(*dbPath + ".wal"); err == nil && fi.IsDir() {
			dir = *dbPath + ".wal"
		}
	}
	cmd, cmdArgs := rest[0], rest[1:]
	if dir != "" {
		if cmd == "serve" {
			// serve manages its own WAL (policy flags, status banner); the
			// global flag just becomes its directory default — an explicit
			// -wal-dir later in the args still wins.
			cmdArgs = append([]string{"-wal-dir", dir}, cmdArgs...)
		} else if err := store.EnableWAL(orpheusdb.WALConfig{Dir: dir, Policy: orpheusdb.FsyncAlways}); err != nil {
			return err
		}
	}
	if *user != "" {
		if err := store.SetUser(*user); err != nil {
			return err
		}
	}
	if err := dispatch(store, cmd, cmdArgs); err != nil {
		return err
	}
	return store.Close()
}

// peekFlagValue scans raw (unparsed) args for -name=v / -name v and returns
// the value. Boolean-style occurrences without a value report ("", false).
func peekFlagValue(args []string, name string) (string, bool) {
	for i, a := range args {
		a = strings.TrimPrefix(strings.TrimPrefix(a, "-"), "-")
		if a == name && i+1 < len(args) {
			return args[i+1], true
		}
		if strings.HasPrefix(a, name+"=") {
			return a[len(name)+1:], true
		}
	}
	return "", false
}

func dispatch(store *orpheusdb.Store, cmd string, args []string) error {
	switch cmd {
	case "init":
		return cmdInit(store, args)
	case "checkout":
		return cmdCheckout(store, args)
	case "commit":
		return cmdCommit(store, args)
	case "diff":
		return cmdDiff(store, args)
	case "log":
		return cmdLog(store, args)
	case "branch":
		return cmdBranch(store, args)
	case "merge":
		return cmdMerge(store, args)
	case "ls":
		for _, name := range store.List() {
			fmt.Println(name)
		}
		return nil
	case "drop":
		if len(args) != 1 {
			return fmt.Errorf("usage: drop <cvd>")
		}
		return store.Drop(args[0])
	case "optimize":
		return cmdOptimize(store, args)
	case "run":
		return cmdRun(store, args)
	case "create_user":
		if len(args) != 1 {
			return fmt.Errorf("usage: create_user <name>")
		}
		if err := store.CreateUser(args[0]); err != nil {
			return err
		}
		fmt.Println("now acting as", args[0])
		return nil
	case "whoami":
		fmt.Println(store.WhoAmI())
		return nil
	case "config":
		fs := flag.NewFlagSet("config", flag.ContinueOnError)
		u := fs.String("u", "", "user name")
		if err := fs.Parse(args); err != nil {
			return err
		}
		if *u != "" {
			return store.SetUser(*u)
		}
		return nil
	case "explain":
		return cmdExplain(store, args)
	case "serve":
		return cmdServe(store, args)
	}
	return fmt.Errorf("unknown command %q", cmd)
}

// splitLeading pulls leading non-flag arguments off args so commands can be
// written as `checkout <cvd> -v 1 -t work` (the flag package stops at the
// first positional otherwise).
func splitLeading(args []string) (pos, flags []string) {
	i := 0
	for i < len(args) && !strings.HasPrefix(args[i], "-") {
		i++
	}
	return args[:i], args[i:]
}

// resolveRefs parses a comma-separated list of version references — ids or
// branch names — against a dataset.
func resolveRefs(d *orpheusdb.Dataset, s string) ([]orpheusdb.VersionID, error) {
	if s == "" {
		return nil, fmt.Errorf("missing -v version list")
	}
	var out []orpheusdb.VersionID
	for _, part := range strings.Split(s, ",") {
		v, err := d.ResolveRef(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseVids(s string) ([]orpheusdb.VersionID, error) {
	if s == "" {
		return nil, fmt.Errorf("missing -v version list")
	}
	var out []orpheusdb.VersionID
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad version id %q", part)
		}
		out = append(out, orpheusdb.VersionID(n))
	}
	return out, nil
}

func cmdInit(store *orpheusdb.Store, args []string) error {
	fs := flag.NewFlagSet("init", flag.ContinueOnError)
	name := fs.String("n", "", "CVD name")
	file := fs.String("f", "", "source csv file")
	pk := fs.String("p", "", "primary key columns, comma separated")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" || *file == "" {
		return fmt.Errorf("usage: init -n <cvd> -f <file.csv> [-p pk]")
	}
	var opts orpheusdb.InitOptions
	if *pk != "" {
		opts.PrimaryKey = strings.Split(*pk, ",")
	}
	_, v, err := store.InitFromCSV(*name, *file, opts)
	if err != nil {
		return err
	}
	fmt.Printf("initialized CVD %s with version %d\n", *name, v)
	return nil
}

func cmdCheckout(store *orpheusdb.Store, args []string) error {
	pos, args := splitLeading(args)
	fs := flag.NewFlagSet("checkout", flag.ContinueOnError)
	vlist := fs.String("v", "", "version id(s), comma separated")
	table := fs.String("t", "", "materialize as table")
	file := fs.String("f", "", "materialize as csv file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(pos) != 1 {
		return fmt.Errorf("usage: checkout <cvd> -v <vid> (-t <table> | -f <file>)")
	}
	d, err := store.Dataset(pos[0])
	if err != nil {
		return err
	}
	vids, err := resolveRefs(d, *vlist)
	if err != nil {
		return err
	}
	switch {
	case *table != "":
		if err := d.CheckoutToTable(*table, vids...); err != nil {
			return err
		}
		fmt.Printf("checked out version(s) %v into table %s\n", vids, *table)
	case *file != "":
		if err := d.CheckoutToCSV(*file, vids...); err != nil {
			return err
		}
		fmt.Printf("checked out version(s) %v into %s\n", vids, *file)
	default:
		return fmt.Errorf("need -t <table> or -f <file>")
	}
	return nil
}

func cmdCommit(store *orpheusdb.Store, args []string) error {
	fs := flag.NewFlagSet("commit", flag.ContinueOnError)
	table := fs.String("t", "", "staged table")
	file := fs.String("f", "", "staged csv file")
	name := fs.String("n", "", "CVD (required with -f on unregistered files)")
	msg := fs.String("m", "", "commit message")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *table != "":
		p, err := core.LookupProvenance(store.DB(), *table)
		if err != nil {
			return err
		}
		d, err := store.Dataset(p.CVD)
		if err != nil {
			return err
		}
		v, err := d.CommitTable(*table, *msg)
		if err != nil {
			return err
		}
		fmt.Printf("committed %s as version %d of %s\n", *table, v, p.CVD)
	case *file != "":
		cvdName := *name
		if cvdName == "" {
			p, err := core.LookupProvenance(store.DB(), *file)
			if err != nil {
				return fmt.Errorf("-n <cvd> required: %w", err)
			}
			cvdName = p.CVD
		}
		d, err := store.Dataset(cvdName)
		if err != nil {
			return err
		}
		v, err := d.CommitCSV(*file, *msg)
		if err != nil {
			return err
		}
		fmt.Printf("committed %s as version %d of %s\n", *file, v, cvdName)
	default:
		return fmt.Errorf("need -t <table> or -f <file>")
	}
	return nil
}

func cmdDiff(store *orpheusdb.Store, args []string) error {
	pos, args := splitLeading(args)
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	vlist := fs.String("v", "", "two version ids, comma separated")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(pos) != 1 {
		return fmt.Errorf("usage: diff <cvd> -v <v1>,<v2>")
	}
	vids, err := parseVids(*vlist)
	if err != nil {
		return err
	}
	if len(vids) != 2 {
		return fmt.Errorf("diff needs exactly two versions")
	}
	d, err := store.Dataset(pos[0])
	if err != nil {
		return err
	}
	onlyA, onlyB, err := d.Diff(vids[0], vids[1])
	if err != nil {
		return err
	}
	fmt.Printf("only in v%d (%d records):\n", vids[0], len(onlyA))
	printRows(onlyA, 20)
	fmt.Printf("only in v%d (%d records):\n", vids[1], len(onlyB))
	printRows(onlyB, 20)
	return nil
}

func printRows(rows []orpheusdb.Row, limit int) {
	for i, r := range rows {
		if i == limit {
			fmt.Printf("  ... %d more\n", len(rows)-limit)
			return
		}
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		fmt.Println("  " + strings.Join(parts, ", "))
	}
}

func cmdBranch(store *orpheusdb.Store, args []string) error {
	pos, args := splitLeading(args)
	fs := flag.NewFlagSet("branch", flag.ContinueOnError)
	create := fs.String("c", "", "create a branch with this name")
	del := fs.String("d", "", "delete this branch")
	at := fs.String("v", "", "anchor version for -c (id or branch; default: latest)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(pos) != 1 {
		return fmt.Errorf("usage: branch <cvd> [-c <name> [-v <ref>] | -d <name>]")
	}
	d, err := store.Dataset(pos[0])
	if err != nil {
		return err
	}
	switch {
	case *create != "":
		head := orpheusdb.VersionID(0)
		if *at != "" {
			if head, err = d.ResolveRef(*at); err != nil {
				return err
			}
		}
		b, err := d.CreateBranch(*create, head)
		if err != nil {
			return err
		}
		fmt.Printf("created branch %s at v%d\n", b.Name, b.Head)
	case *del != "":
		if err := d.DeleteBranch(*del); err != nil {
			return err
		}
		fmt.Printf("deleted branch %s\n", *del)
	default:
		for _, b := range d.Branches() {
			fmt.Printf("%-12s head=v%-5d versions=%d\n", b.Name, b.Head, b.Lineage.Cardinality())
		}
	}
	return nil
}

func cmdMerge(store *orpheusdb.Store, args []string) error {
	pos, args := splitLeading(args)
	fs := flag.NewFlagSet("merge", flag.ContinueOnError)
	from := fs.String("from", "", "side to merge in (version id or branch)")
	into := fs.String("into", "", "merge target (version id or branch; a branch head advances)")
	policy := fs.String("policy", "fail", "conflict resolution: fail, ours, or theirs")
	msg := fs.String("m", "", "merge commit message")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(pos) != 1 || *from == "" || *into == "" {
		return fmt.Errorf("usage: merge <cvd> -from <ref> -into <ref> [-policy fail|ours|theirs] [-m msg]")
	}
	d, err := store.Dataset(pos[0])
	if err != nil {
		return err
	}
	pol, err := orpheusdb.ParseMergePolicy(*policy)
	if err != nil {
		return err
	}
	res, err := d.Merge(*into, *from, pol, *msg)
	if err != nil {
		return err
	}
	switch {
	case res.UpToDate:
		fmt.Printf("already up to date: v%d contains v%d\n", res.Ours, res.Theirs)
	case res.FastForward:
		fmt.Printf("fast-forward to v%d\n", res.Version)
	default:
		fmt.Printf("merged v%d into v%d as v%d (base v%d)\n", res.Theirs, res.Ours, res.Version, res.Base)
		if n := len(res.Conflicts); n > 0 {
			fmt.Printf("resolved %d conflict(s) using %s:\n", n, pol)
			for _, c := range res.Conflicts {
				fmt.Printf("  %s (%s)\n", c.Key, c.Kind())
			}
		}
	}
	return nil
}

func cmdLog(store *orpheusdb.Store, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: log <cvd>")
	}
	d, err := store.Dataset(args[0])
	if err != nil {
		return err
	}
	for _, v := range d.Versions() {
		info, err := d.Info(v)
		if err != nil {
			return err
		}
		parents := make([]string, len(info.Parents))
		for i, p := range info.Parents {
			parents[i] = strconv.Itoa(int(p))
		}
		fmt.Printf("v%-5d parents=[%s] records=%d committed=%s msg=%q\n",
			v, strings.Join(parents, ","), info.NumRecords,
			info.CommitTime.Format("2006-01-02 15:04:05"), info.Message)
	}
	return nil
}

func cmdOptimize(store *orpheusdb.Store, args []string) error {
	pos, args := splitLeading(args)
	fs := flag.NewFlagSet("optimize", flag.ContinueOnError)
	gamma := fs.Float64("gamma", 2.0, "storage threshold as a multiple of |R|")
	mu := fs.Float64("mu", 0, "tolerance factor: only migrate when Cavg > mu*C*avg")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(pos) != 1 {
		return fmt.Errorf("usage: optimize <cvd> [-gamma 2.0] [-mu 1.5]")
	}
	d, err := store.Dataset(pos[0])
	if err != nil {
		return err
	}
	if *mu > 0 {
		m, err := d.MaintainPartitions(*gamma, *mu)
		if err != nil {
			return err
		}
		if !m.Migrated {
			fmt.Printf("within tolerance: Cavg=%.0f C*avg=%.0f mu=%.2f — no migration\n",
				m.Cavg, m.BestCavg, *mu)
			return nil
		}
		res := m.Migration
		fmt.Printf("migrated: Cavg %.0f -> %.0f records, partitions=%d, migrate=%v\n",
			m.Cavg, res.EstCheckout, res.Partitions, res.MigrateTime)
		return nil
	}
	res, err := d.Optimize(*gamma)
	if err != nil {
		return err
	}
	fmt.Printf("lyresplit: delta=%.4f partitions=%d estS=%d estCavg=%.0f solve=%v migrate=%v (moved %d records)\n",
		res.Delta, res.Partitions, res.EstStorage, res.EstCheckout,
		res.SolveTime, res.MigrateTime, res.RowsMoved)
	return nil
}

func cmdRun(store *orpheusdb.Store, args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	query := fs.String("q", "", "SQL statement")
	script := fs.String("s", "", "SQL script file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	src := *query
	if *script != "" {
		data, err := os.ReadFile(*script)
		if err != nil {
			return err
		}
		src = string(data)
	}
	if src == "" {
		return fmt.Errorf("usage: run -q <sql> | -s <script.sql>")
	}
	res, err := store.RunScript(context.Background(), src)
	if err != nil {
		return err
	}
	if len(res.Cols) > 0 {
		fmt.Println(strings.Join(res.Cols, "\t"))
		for _, r := range res.Rows {
			parts := make([]string, len(r))
			for i, v := range r {
				parts[i] = v.String()
			}
			fmt.Println(strings.Join(parts, "\t"))
		}
	} else {
		fmt.Printf("ok (%d rows affected)\n", res.Affected)
	}
	return nil
}

func cmdExplain(store *orpheusdb.Store, args []string) error {
	pos, args := splitLeading(args)
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	vlist := fs.String("v", "1", "version id")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(pos) != 1 {
		return fmt.Errorf("usage: explain <cvd> -v <vid>")
	}
	d, err := store.Dataset(pos[0])
	if err != nil {
		return err
	}
	vids, err := parseVids(*vlist)
	if err != nil {
		return err
	}
	// The CLI is the store's only user, so the unlocked core object is safe.
	checkout, err := d.CVD().CheckoutSQL("t_prime", vids[0])
	if err != nil {
		return err
	}
	commit, err := d.CVD().CommitSQL("t_prime", vids[0])
	if err != nil {
		return err
	}
	fmt.Println("-- checkout translation (Table 1):")
	fmt.Println(checkout)
	fmt.Println("-- commit translation (Table 1):")
	fmt.Println(commit)
	return nil
}
