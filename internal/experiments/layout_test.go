package experiments

import (
	"sort"
	"testing"

	"orpheusdb/internal/benchgen"
	"orpheusdb/internal/engine"
	"orpheusdb/internal/vgraph"
)

// TestLayoutCheckoutOracle: under each of the five paper layouts, every
// version of a generated history checks out exactly the record ids the
// generator committed to it, each with the generator's attributes.
func TestLayoutCheckoutOracle(t *testing.T) {
	d, err := benchgen.Standard("SCI_1M", 0.002, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Commits) < 10 {
		t.Fatalf("only %d commits generated", len(d.Commits))
	}
	for _, kind := range AllModelKinds() {
		t.Run(string(kind), func(t *testing.T) {
			l, err := loadLayout(engine.NewDB(), d, kind)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range d.Commits {
				recs, err := l.Checkout(c.ID)
				if err != nil {
					t.Fatalf("v%d: %v", c.ID, err)
				}
				got := make([]vgraph.RecordID, len(recs))
				for i, r := range recs {
					got[i] = r.RID
					want := d.RecordRow(r.RID)
					if len(r.Data) != len(want) {
						t.Fatalf("v%d: record %d has %d attributes, want %d", c.ID, r.RID, len(r.Data), len(want))
					}
					for j, v := range want {
						if r.Data[j].I != v {
							t.Fatalf("v%d: record %d attribute %d = %v, want %d", c.ID, r.RID, j, r.Data[j], v)
						}
					}
				}
				want := append([]vgraph.RecordID(nil), c.Records...)
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				if len(got) != len(want) {
					t.Fatalf("v%d: %d records, want %d", c.ID, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("v%d: record set differs at %d: %d vs %d", c.ID, i, got[i], want[i])
					}
				}
			}
			if l.StorageBytes() <= 0 {
				t.Fatal("zero storage")
			}
		})
	}
}

func TestTable1Translations(t *testing.T) {
	co := CheckoutSQL(SplitByRlistModel, "cvd", "tp", 3)
	want := "SELECT * INTO tp FROM cvd_rl_data, (SELECT unnest(rlist) AS rid_tmp FROM cvd_rl_version WHERE vid = 3) AS tmp WHERE rid = rid_tmp;"
	if co != want {
		t.Fatalf("rlist checkout SQL:\n%s\nwant:\n%s", co, want)
	}
	cm := CommitSQL(CombinedTableModel, "cvd", "tp", 4)
	if cm != "UPDATE cvd_combined SET vlist = vlist + 4 WHERE rid IN (SELECT rid FROM tp);" {
		t.Fatalf("combined commit SQL: %s", cm)
	}
	for _, kind := range AllModelKinds() {
		if CheckoutSQL(kind, "c", "t", 1) == "" || CommitSQL(kind, "c", "t", 2) == "" {
			t.Fatalf("%s: empty translation", kind)
		}
	}
	if CheckoutSQL("nope", "c", "t", 1) != "" {
		t.Fatal("unknown model should yield empty translation")
	}
}
