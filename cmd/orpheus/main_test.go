package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"orpheusdb"
)

// run exercises the CLI end to end against a store file in a temp dir.
func cli(t *testing.T, dir string, args ...string) error {
	t.Helper()
	full := append([]string{"-d", filepath.Join(dir, "s.odb")}, args...)
	return run(full)
}

func writeCSV(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCLIWorkflow(t *testing.T) {
	dir := t.TempDir()
	csv := writeCSV(t, dir, "data.csv",
		"protein1:string,protein2:string,coexpression:integer\nA,B,10\nC,D,20\n")

	steps := [][]string{
		{"init", "-n", "prot", "-f", csv, "-p", "protein1,protein2"},
		{"checkout", "prot", "-v", "1", "-t", "work"},
		{"run", "-q", "UPDATE work SET coexpression = 99 WHERE protein1 = 'A'"},
		{"commit", "-t", "work", "-m", "bump"},
		{"log", "prot"},
		{"diff", "prot", "-v", "1,2"},
		{"ls"},
		{"run", "-q", "SELECT vid, count(*) FROM CVD prot GROUP BY vid"},
		{"run", "-q", "SELECT * FROM VERSION 2 OF CVD prot"},
		{"explain", "prot", "-v", "1"},
		{"whoami"},
		{"create_user", "ann"},
	}
	for _, s := range steps {
		if err := cli(t, dir, s...); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
	}
}

func TestCLICSVCheckoutCommit(t *testing.T) {
	dir := t.TempDir()
	csv := writeCSV(t, dir, "d.csv", "k:integer,v:string\n1,a\n")
	if err := cli(t, dir, "init", "-n", "d", "-f", csv); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "work.csv")
	if err := cli(t, dir, "checkout", "d", "-v", "1", "-f", out); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatal(err)
	}
	if err := cli(t, dir, "commit", "-f", out, "-m", "recommit"); err != nil {
		t.Fatal(err)
	}
}

func TestCLIOptimize(t *testing.T) {
	dir := t.TempDir()
	csv := writeCSV(t, dir, "d.csv", "k:integer\n1\n2\n3\n")
	if err := cli(t, dir, "init", "-n", "d", "-f", csv); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := cli(t, dir, "checkout", "d", "-v", "1", "-t", "w"); err != nil {
			t.Fatal(err)
		}
		if err := cli(t, dir, "commit", "-t", "w", "-m", "branch"); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli(t, dir, "optimize", "d", "-gamma", "2.0"); err != nil {
		t.Fatal(err)
	}
	if err := cli(t, dir, "run", "-q", "SELECT count(*) FROM VERSION 4 OF CVD d"); err != nil {
		t.Fatal(err)
	}
}

func TestCLIErrors(t *testing.T) {
	dir := t.TempDir()
	cases := [][]string{
		{"nope"},
		{"checkout", "missing", "-v", "1", "-t", "t"},
		{"drop", "missing"},
		{"diff", "missing", "-v", "1,2"},
		{"run", "-q", "SELEC nonsense"},
		{"commit", "-t", "unstaged"},
		{"init", "-n", "x"},
		{"checkout"},
	}
	for _, s := range cases {
		if err := cli(t, dir, s...); err == nil {
			t.Errorf("%v should fail", s)
		}
	}
}

func TestCLIUserScoping(t *testing.T) {
	dir := t.TempDir()
	csv := writeCSV(t, dir, "d.csv", "k:integer\n1\n")
	if err := cli(t, dir, "init", "-n", "d", "-f", csv); err != nil {
		t.Fatal(err)
	}
	// bob checks out; alice cannot commit his table.
	if err := run([]string{"-d", filepath.Join(dir, "s.odb"), "-u", "bob", "checkout", "d", "-v", "1", "-t", "w"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-d", filepath.Join(dir, "s.odb"), "-u", "alice", "commit", "-t", "w", "-m", "steal"}); err == nil {
		t.Fatal("cross-user commit allowed")
	}
	if err := run([]string{"-d", filepath.Join(dir, "s.odb"), "-u", "bob", "commit", "-t", "w", "-m", "mine"}); err != nil {
		t.Fatal(err)
	}
}

func TestCLIOptimizeWithTolerance(t *testing.T) {
	dir := t.TempDir()
	csv := writeCSV(t, dir, "d.csv", "k:integer\n1\n2\n")
	if err := cli(t, dir, "init", "-n", "d", "-f", csv); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := cli(t, dir, "checkout", "d", "-v", "1", "-t", "w"); err != nil {
			t.Fatal(err)
		}
		if err := cli(t, dir, "commit", "-t", "w", "-m", "branch"); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli(t, dir, "optimize", "d", "-gamma", "2.0", "-mu", "1.2"); err != nil {
		t.Fatal(err)
	}
	// A second tolerance check is a no-op.
	if err := cli(t, dir, "optimize", "d", "-gamma", "2.0", "-mu", "1.2"); err != nil {
		t.Fatal(err)
	}
}

// TestCLIExplainNamesLiveTables: after a repartitioning spreads a dataset
// over several partitions, every table `explain` names for any version
// exists in the store.
func TestCLIExplainNamesLiveTables(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.odb")
	store, err := orpheusdb.OpenStoreWithOptions(path, orpheusdb.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := store.Init("d", []orpheusdb.Column{{Name: "k", Type: orpheusdb.KindInt}}, orpheusdb.InitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows := func(from, n int) []orpheusdb.Row {
		var out []orpheusdb.Row
		for k := from; k < from+n; k++ {
			out = append(out, orpheusdb.Row{orpheusdb.Int(int64(k))})
		}
		return out
	}
	root, err := d.Commit(rows(0, 20), nil, "root")
	if err != nil {
		t.Fatal(err)
	}
	// Two branches sharing nothing with each other or the root.
	for _, base := range []int{1000, 2000} {
		parent := root
		for i := 0; i < 4; i++ {
			if parent, err = d.Commit(rows(base, 20+i), []orpheusdb.VersionID{parent}, "branch"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := d.Optimize(1.5); err != nil {
		t.Fatal(err)
	}
	if st, _ := d.PartitionStatus(); len(st.Partitions) < 2 {
		t.Fatalf("optimize left %d partitions, want at least 2", len(st.Partitions))
	}
	versions := d.Versions()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	tableRE := regexp.MustCompile(`\bd_\w+`)
	named := map[string]bool{}
	for _, v := range versions {
		out := captureOutput(t, func() error { return cli(t, dir, "explain", "d", "-v", fmt.Sprint(v)) })
		for _, name := range tableRE.FindAllString(out, -1) {
			named[name] = true
		}
	}
	store, err = orpheusdb.OpenStoreWithOptions(path, orpheusdb.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var parts int
	for name := range named {
		if !store.DB().HasTable(name) {
			t.Errorf("explain names %s, which does not exist", name)
		}
		if regexp.MustCompile(`^d_part\d+_data$`).MatchString(name) {
			parts++
		}
	}
	if parts < 2 {
		t.Fatalf("explain named %d partitions' data tables across %d versions, want at least 2: %v", parts, len(versions), named)
	}
}
