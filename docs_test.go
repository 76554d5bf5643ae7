package orpheusdb

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docs_test executes every ```sql block of docs/SQL.md, in document order,
// against the store documented in its Setup section. Blocks whose first line
// is `-- error` must fail; all others must succeed. This keeps the SQL
// reference honest: an example that stops working breaks the build.

// sqlDocStore builds exactly the store docs/SQL.md's Setup section promises.
func sqlDocStore(t *testing.T) *Store {
	t.Helper()
	store := NewStore()
	ds, err := store.Init("prot", []Column{
		{Name: "p1", Type: KindInt},
		{Name: "p2", Type: KindInt},
		{Name: "score", Type: KindFloat},
		{Name: "tag", Type: KindString},
	}, InitOptions{PrimaryKey: []string{"p1", "p2"}})
	if err != nil {
		t.Fatal(err)
	}
	v1rows := []Row{
		{Int(1), Int(1), Float(0.5), String("alpha")},
		{Int(2), Int(2), Float(0.9), String("beta")},
	}
	if _, err := ds.Commit(v1rows, nil, "v1"); err != nil {
		t.Fatal(err)
	}
	v2rows := append(append([]Row(nil), v1rows...),
		Row{Int(3), Int(3), Float(0.1), String("gamma")})
	if _, err := ds.Commit(v2rows, []VersionID{1}, "v2"); err != nil {
		t.Fatal(err)
	}
	v3rows := []Row{
		{Int(1), Int(1), Float(0.7), String("alpha")},
		{Int(2), Int(2), Float(0.9), String("beta")},
	}
	if _, err := ds.Commit(v3rows, []VersionID{1}, "v3"); err != nil {
		t.Fatal(err)
	}
	v4rows := []Row{
		{Int(1), Int(1), Float(0.95), String("alpha")},
		{Int(2), Int(2), Float(0.9), String("beta")},
	}
	if _, err := ds.Commit(v4rows, []VersionID{1}, "v4"); err != nil {
		t.Fatal(err)
	}
	return store
}

// sqlBlocks extracts the fenced ```sql blocks of a markdown file in order.
func sqlBlocks(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	var blocks []string
	var cur []string
	in := false
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "```sql"):
			in = true
			cur = nil
		case in && strings.HasPrefix(line, "```"):
			in = false
			blocks = append(blocks, strings.TrimSpace(strings.Join(cur, "\n")))
		case in:
			cur = append(cur, line)
		}
	}
	if in {
		t.Fatalf("%s: unterminated ```sql block", path)
	}
	return blocks
}

func TestSQLDocExamplesExecute(t *testing.T) {
	store := sqlDocStore(t)
	blocks := sqlBlocks(t, "docs/SQL.md")
	if len(blocks) < 20 {
		t.Fatalf("only %d sql blocks found in docs/SQL.md — extraction broken?", len(blocks))
	}
	for i, block := range blocks {
		wantErr := false
		if first, rest, ok := strings.Cut(block, "\n"); ok && strings.TrimSpace(first) == "-- error" {
			wantErr = true
			block = rest
		} else if strings.TrimSpace(block) == "-- error" {
			t.Fatalf("block %d is only an error marker", i)
		}
		_, err := store.Run(block)
		if wantErr && err == nil {
			t.Errorf("docs/SQL.md block %d should fail but succeeded:\n%s", i, block)
		}
		if !wantErr && err != nil {
			t.Errorf("docs/SQL.md block %d failed: %v\n%s", i, err, block)
		}
	}
}

// TestSQLDocClaimedResults pins the result values the prose of docs/SQL.md
// asserts, so the numbers in the document cannot drift from reality.
func TestSQLDocClaimedResults(t *testing.T) {
	store := sqlDocStore(t)
	counts := []struct {
		sql  string
		want int64
	}{
		{"SELECT count(*) FROM VERSION 1 OF CVD prot", 2},
		{"SELECT count(*) FROM VERSION 1 INTERSECT 2 OF CVD prot", 2},
		{"SELECT count(*) FROM VERSION 2 EXCEPT 1 OF CVD prot", 1},
		{"SELECT count(*) FROM VERSION 1 UNION 2 UNION 3 OF CVD prot", 4},
	}
	for _, c := range counts {
		res, err := store.Run(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if got := res.Rows[0][0].I; got != c.want {
			t.Errorf("%s = %d, want %d", c.sql, got, c.want)
		}
	}

	res, err := store.Run("SELECT vid, count(*) AS records FROM CVD prot GROUP BY vid ORDER BY vid")
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int64{{1, 2}, {2, 3}, {3, 2}, {4, 2}}
	if len(res.Rows) != len(want) {
		t.Fatalf("all-versions counts: %d rows, want %d", len(res.Rows), len(want))
	}
	for i, w := range want {
		if res.Rows[i][0].I != w[0] || res.Rows[i][1].I != w[1] {
			t.Errorf("row %d = (%d,%d), want (%d,%d)",
				i, res.Rows[i][0].I, res.Rows[i][1].I, w[0], w[1])
		}
	}

	res, err = store.Run("SELECT DISTINCT vid FROM CVD prot WHERE tag = 'alpha' AND score > 0.6 ORDER BY vid")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].I != 3 || res.Rows[1][0].I != 4 {
		t.Errorf("alpha>0.6 versions = %v, want 3 and 4", res.Rows)
	}

	res, err = store.Run("SELECT vid, avg(score) AS mean FROM CVD prot GROUP BY vid HAVING count(*) > 2 ORDER BY vid")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Errorf("HAVING example = %v, want only version 2", res.Rows)
	}

	// Claims of the "Branches and merges" section.
	if _, err := store.Run("CREATE BRANCH main FROM VERSION 2 OF CVD prot"); err != nil {
		t.Fatal(err)
	}
	res, err = store.Run("MERGE VERSION 3 INTO main OF CVD prot")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 5 || res.Rows[0][1].I != 1 || res.Rows[0][2].I != 0 {
		t.Errorf("merge into main = %v, want version 5, base 1, 0 conflicts", res.Rows)
	}
	res, err = store.Run("SELECT count(*) FROM VERSION main OF CVD prot")
	if err != nil || res.Rows[0][0].I != 3 {
		t.Errorf("merged main count = %v, %v; want 3", res.Rows, err)
	}
	if _, err := store.Run("MERGE VERSION 4 INTO 3 OF CVD prot"); err == nil {
		t.Error("modify/modify merge under fail policy should error")
	}
	res, err = store.Run("MERGE VERSION 4 INTO 3 OF CVD prot USING theirs")
	if err != nil || res.Rows[0][2].I != 1 {
		t.Errorf("USING theirs = %v, %v; want 1 resolved conflict", res, err)
	}
}

// TestArchitectureDocMatchesRoutes keeps docs/ARCHITECTURE.md's and the
// README's claims structurally honest where cheap: the files exist and name
// the packages that actually exist in the tree.
func TestArchitectureDocMatchesTree(t *testing.T) {
	data, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatalf("docs/ARCHITECTURE.md missing: %v", err)
	}
	doc := string(data)
	for _, pkg := range []string{
		"internal/engine", "internal/bitmap", "internal/wal", "internal/cache",
		"internal/vgraph", "internal/partition", "internal/core", "internal/sql",
		"internal/server", "internal/merge",
	} {
		if !strings.Contains(doc, pkg) {
			t.Errorf("ARCHITECTURE.md does not mention %s", pkg)
		}
		if _, err := os.Stat(pkg); err != nil {
			t.Errorf("ARCHITECTURE.md names %s but it does not exist", pkg)
		}
	}
	for _, inv := range []string{"Logged before visible", "Cache-invalidate-in-critical-section", "canonical form"} {
		if !strings.Contains(doc, inv) {
			t.Errorf("ARCHITECTURE.md lost its %q invariant section", inv)
		}
	}
}

// TestDocsBenchReferencesResolve keeps README.md and docs/*.md from sending a
// reader to a benchmark that is not there: a BENCH*.json path must name an
// existing file (relative to the document or to the repository root), and
// whatever follows `orpheus-bench` on a line must be its flags and artifacts
// cmd/orpheus-bench accepts. Load generation and recorded numbers live in
// bench/ (`bash bench/run.sh`, bench/baseline.json).
func TestDocsBenchReferencesResolve(t *testing.T) {
	src, err := os.ReadFile("cmd/orpheus-bench/main.go")
	if err != nil {
		t.Fatal(err)
	}
	artifacts := make(map[string]bool)
	for _, m := range regexp.MustCompile(`case ("[a-z0-9]+"(?:, "[a-z0-9]+")*):`).FindAllStringSubmatch(string(src), -1) {
		for _, name := range strings.Split(m[1], ", ") {
			artifacts[strings.Trim(name, `"`)] = true
		}
	}
	if !artifacts["table1"] || !artifacts["fig23"] || !artifacts["all"] {
		t.Fatalf("artifact names not found in cmd/orpheus-bench/main.go (got %v) — extraction broken?", artifacts)
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	benchFile := regexp.MustCompile(`[\w./-]*BENCH\w*\.json`)
	command := regexp.MustCompile(`orpheus-bench((?: +[-\w.=]+)+)`)
	for _, doc := range append(docs, "README.md") {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range benchFile.FindAllString(string(data), -1) {
			_, errDoc := os.Stat(filepath.Join(filepath.Dir(doc), ref))
			_, errRoot := os.Stat(ref)
			if errDoc != nil && errRoot != nil {
				t.Errorf("%s names %s, which does not exist", doc, ref)
			}
		}
		for _, m := range command.FindAllStringSubmatch(string(data), -1) {
			words := strings.Fields(m[1])
			for i := 0; i < len(words); i++ {
				switch w := words[i]; {
				case strings.HasPrefix(w, "-"):
					if !strings.Contains(w, "=") {
						i++ // every flag of the command takes a value
					}
				case !artifacts[w]:
					t.Errorf("%s: `orpheus-bench%s`: %q is not an artifact the command accepts", doc, m[1], w)
				}
			}
		}
	}
}

func ExampleStore_Run() {
	store := NewStore()
	ds, _ := store.Init("people", []Column{
		{Name: "id", Type: KindInt},
		{Name: "name", Type: KindString},
	}, InitOptions{PrimaryKey: []string{"id"}})
	ds.Commit([]Row{{Int(1), String("ada")}}, nil, "v1")
	res, _ := store.Run("SELECT count(*) FROM VERSION 1 OF CVD people")
	fmt.Println(res.Rows[0][0].I)
	// Output: 1
}
