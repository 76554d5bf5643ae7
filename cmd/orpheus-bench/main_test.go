package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"orpheusdb/internal/experiments"
)

// runCaptured runs the command in-process with os.Stdout redirected to a
// file, returning the exit status and what was printed.
func runCaptured(t *testing.T, artifacts ...string) (int, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	code := run(artifacts)
	os.Stdout = stdout
	f.Close()
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}

// sections splits printed reports into data rows (header dropped) keyed by
// the title up to its colon: "Table 2", "Figure 3a".
func sections(out string) map[string][][]string {
	secs := make(map[string][][]string)
	for _, block := range strings.Split(out, "== ")[1:] {
		lines := strings.Split(block, "\n")
		title, _, _ := strings.Cut(lines[0], ":")
		for _, l := range lines[2:] {
			if l == "" {
				break
			}
			secs[title] = append(secs[title], strings.Fields(l))
		}
	}
	return secs
}

func TestTable2AndFig3(t *testing.T) {
	*scale = 0.0003
	code, out := runCaptured(t, "table2", "fig3")
	if code != 0 {
		t.Fatalf("exit status %d\n%s", code, out)
	}
	secs := sections(out)
	if n := len(secs["Table 2"]); n != 8 {
		t.Fatalf("table2 has %d dataset rows, want 8\n%s", n, out)
	}
	for _, fig := range []string{"Figure 3a", "Figure 3b", "Figure 3c"} {
		perModel := make(map[string]int)
		for _, row := range secs[fig] {
			if len(row) != 3 || row[2] == "" {
				t.Fatalf("%s: malformed row %q", fig, row)
			}
			perModel[row[1]]++
		}
		for _, kind := range experiments.AllModelKinds() {
			if perModel[string(kind)] != len(sciSmall) {
				t.Errorf("%s: %d points for %s, want one per dataset (%d)\n%s",
					fig, perModel[string(kind)], kind, len(sciSmall), out)
			}
		}
	}
}

// TestUnknownArtifact: a name that is no artifact is an error and a non-zero
// exit — including the load generators this command used to carry, which
// bench/ replaced (`bash bench/run.sh`).
func TestUnknownArtifact(t *testing.T) {
	for _, name := range []string{"fig99", "http", "durability", "cachebench", "partbench", "replbench", "diskbench"} {
		if err := runArtifact(name); err == nil || !strings.Contains(err.Error(), "unknown artifact") {
			t.Errorf("runArtifact(%q) = %v, want an unknown-artifact error", name, err)
		}
		if code, _ := runCaptured(t, name, "-json", "out.json"); code != 1 {
			t.Errorf("orpheus-bench %s exits %d, want 1", name, code)
		}
	}
	if code, _ := runCaptured(t); code != 2 {
		t.Errorf("no artifact exits %d, want 2 (usage)", code)
	}
}
