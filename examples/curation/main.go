// Curation: a CUR-workload style scenario (Section 5.1) with branches merging
// back into a canonical dataset, plus the schema evolution of Section 3.3:
// new attributes appear on branches and a type widens from integer to
// decimal, all under the single-pool method.
package main

import (
	"context"
	"fmt"
	"log"

	orpheusdb "orpheusdb"
)

func main() {
	ctx := context.Background()
	store := orpheusdb.NewStore()
	if err := store.CreateUser("alice"); err != nil {
		log.Fatal(err)
	}

	cols := []orpheusdb.Column{
		{Name: "gene", Type: orpheusdb.KindString},
		{Name: "annotation", Type: orpheusdb.KindString},
		{Name: "confidence", Type: orpheusdb.KindInt},
	}
	ds, err := store.Init("annotations", cols, orpheusdb.InitOptions{PrimaryKey: []string{"gene"}})
	if err != nil {
		log.Fatal(err)
	}

	v1, err := ds.Commit([]orpheusdb.Row{
		{orpheusdb.String("brca1"), orpheusdb.String("dna repair"), orpheusdb.Int(90)},
		{orpheusdb.String("tp53"), orpheusdb.String("tumor suppressor"), orpheusdb.Int(95)},
		{orpheusdb.String("egfr"), orpheusdb.String("growth signaling"), orpheusdb.Int(80)},
	}, nil, "canonical import")
	if err != nil {
		log.Fatal(err)
	}

	// Bob branches through the staging area: checkout to a table, edit via
	// SQL, commit back. The access controller keeps his table private.
	if err := store.CreateUser("bob"); err != nil {
		log.Fatal(err)
	}
	if err := ds.CheckoutToTable("bob_work", v1); err != nil {
		log.Fatal(err)
	}
	if _, err := store.Run("UPDATE bob_work SET confidence = 99 WHERE gene = 'tp53'"); err != nil {
		log.Fatal(err)
	}
	if err := store.SetUser("alice"); err != nil {
		log.Fatal(err)
	}
	if _, err := ds.CommitTable("bob_work", "alice steals bob's table"); err != nil {
		fmt.Println("access controller:", err)
	}
	if err := store.SetUser("bob"); err != nil {
		log.Fatal(err)
	}
	v2, err := ds.CommitTable("bob_work", "bob: bump tp53 confidence")
	if err != nil {
		log.Fatal(err)
	}

	// Carol's branch adds an attribute (pathway) — schema evolution: old
	// records read NULL for it.
	carolCols := append(append([]orpheusdb.Column{}, cols...),
		orpheusdb.Column{Name: "pathway", Type: orpheusdb.KindString})
	v3, err := ds.CommitWithSchema(ctx, carolCols, []orpheusdb.Row{
		{orpheusdb.String("brca1"), orpheusdb.String("dna repair"), orpheusdb.Int(90), orpheusdb.String("hr")},
		{orpheusdb.String("tp53"), orpheusdb.String("tumor suppressor"), orpheusdb.Int(95), orpheusdb.String("apoptosis")},
		{orpheusdb.String("egfr"), orpheusdb.String("growth signaling"), orpheusdb.Int(80), orpheusdb.String("mapk")},
	}, []orpheusdb.VersionID{v1}, "carol: add pathway column")
	if err != nil {
		log.Fatal(err)
	}

	// A later commit widens confidence from integer to decimal — the
	// attribute table gains a new entry and the pool column widens.
	decCols := []orpheusdb.Column{
		{Name: "gene", Type: orpheusdb.KindString},
		{Name: "annotation", Type: orpheusdb.KindString},
		{Name: "confidence", Type: orpheusdb.KindFloat},
		{Name: "pathway", Type: orpheusdb.KindString},
	}
	v4, err := ds.CommitWithSchema(ctx, decCols, []orpheusdb.Row{
		{orpheusdb.String("brca1"), orpheusdb.String("dna repair"), orpheusdb.Float(0.93), orpheusdb.String("hr")},
		{orpheusdb.String("tp53"), orpheusdb.String("tumor suppressor"), orpheusdb.Float(0.99), orpheusdb.String("apoptosis")},
	}, []orpheusdb.VersionID{v3}, "rescale confidence to [0,1]")
	if err != nil {
		log.Fatal(err)
	}

	// Merge bob's and carol's lines back into the canonical dataset. The
	// merged version carries the union of attributes (Section 3.3).
	merged, err := ds.Checkout(v2, v4)
	if err != nil {
		log.Fatal(err)
	}
	v5, err := ds.Commit(merged, []orpheusdb.VersionID{v2, v4}, "curation round: merge bob + carol")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("version DAG: v1 -> {v2(bob), v3(carol) -> v4} -> v5 (merge)\n")
	for _, v := range ds.Versions() {
		info, _ := ds.Info(v)
		fmt.Printf("  v%d: %d records, parents %v, %q\n", v, info.NumRecords, info.Parents, info.Message)
	}

	// The current pool schema shows the widened confidence column.
	fmt.Println("pool schema after evolution:")
	for _, c := range ds.Columns() {
		fmt.Printf("  %-12s %s\n", c.Name, c.Type)
	}

	rows, err := ds.Checkout(v5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("v%d contents (%d rows):\n", v5, len(rows))
	for _, r := range rows {
		fmt.Printf("  %v\n", r)
	}
}
