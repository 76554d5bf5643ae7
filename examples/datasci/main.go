// Datasci: an SCI-workload style pipeline (Section 5.1) — a data science team
// branches an evolving dataset for isolated analysis, hundreds of versions
// accumulate, checkouts slow down, and the partition optimizer (LYRESPLIT)
// restores them.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	orpheusdb "orpheusdb"
)

func main() {
	store := orpheusdb.NewStore()
	cols := []orpheusdb.Column{
		{Name: "sample_id", Type: orpheusdb.KindInt},
		{Name: "feature_a", Type: orpheusdb.KindInt},
		{Name: "feature_b", Type: orpheusdb.KindInt},
		{Name: "label", Type: orpheusdb.KindInt},
	}
	// Every dataset is partitioned split-by-rlist, so `optimize` can
	// reorganize it.
	ds, err := store.Init("samples", cols, orpheusdb.InitOptions{
		PrimaryKey: []string{"sample_id"},
	})
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	mkRow := func(id int64) orpheusdb.Row {
		return orpheusdb.Row{
			orpheusdb.Int(id),
			orpheusdb.Int(rng.Int63n(1000)),
			orpheusdb.Int(rng.Int63n(1000)),
			orpheusdb.Int(rng.Int63n(2)),
		}
	}

	// Mainline: an evolving dataset.
	var rows []orpheusdb.Row
	var nextID int64
	for i := 0; i < 200; i++ {
		rows = append(rows, mkRow(nextID))
		nextID++
	}
	mainline, err := ds.Commit(rows, nil, "raw samples")
	if err != nil {
		log.Fatal(err)
	}

	// Scientists branch from the mainline, transform their copy, and
	// commit; the mainline keeps growing.
	heads := []orpheusdb.VersionID{mainline}
	for round := 0; round < 60; round++ {
		// Extend the mainline with new samples and some relabeling.
		for i := 0; i < 20; i++ {
			rows = append(rows, mkRow(nextID))
			nextID++
		}
		idx := rng.Intn(len(rows))
		edited := append(orpheusdb.Row(nil), rows[idx]...)
		edited[3] = orpheusdb.Int(1 - edited[3].I)
		rows[idx] = edited
		v, err := ds.Commit(rows, []orpheusdb.VersionID{heads[0]}, fmt.Sprintf("mainline round %d", round))
		if err != nil {
			log.Fatal(err)
		}
		heads[0] = v

		// Occasionally fork an analysis branch: filter + transform.
		if round%6 == 0 {
			var branch []orpheusdb.Row
			for _, r := range rows {
				if r[1].I < 500 {
					nr := append(orpheusdb.Row(nil), r...)
					nr[2] = orpheusdb.Int(nr[2].I * 2)
					branch = append(branch, nr)
				}
			}
			bv, err := ds.Commit(branch, []orpheusdb.VersionID{heads[0]}, fmt.Sprintf("analysis fork %d", round))
			if err != nil {
				log.Fatal(err)
			}
			heads = append(heads, bv)
		}
	}
	fmt.Printf("committed %d versions, latest mainline v%d\n", len(ds.Versions()), heads[0])

	// Checkout latency before partitioning: every version lives in one
	// partition, so a checkout scans everything.
	timeCheckout := func(label string) {
		start := time.Now()
		n := 0
		for _, v := range []orpheusdb.VersionID{heads[0], heads[len(heads)-1], 1} {
			rows, err := ds.Checkout(v)
			if err != nil {
				log.Fatal(err)
			}
			n += len(rows)
		}
		fmt.Printf("%s: 3 checkouts (%d rows) in %v\n", label, n, time.Since(start))
	}
	timeCheckout("before optimize")

	// Run LYRESPLIT under a 2x storage budget (the `optimize` command).
	res, err := ds.Optimize(2.0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimize: delta=%.3f partitions=%d estCavg=%.0f records, solve=%v migrate=%v\n",
		res.Delta, res.Partitions, res.EstCheckout, res.SolveTime, res.MigrateTime)

	timeCheckout("after optimize")

	// New commits keep flowing; online maintenance places them without a
	// full reorganization.
	for round := 0; round < 10; round++ {
		for i := 0; i < 10; i++ {
			rows = append(rows, mkRow(nextID))
			nextID++
		}
		v, err := ds.Commit(rows, []orpheusdb.VersionID{heads[0]}, "post-optimize commit")
		if err != nil {
			log.Fatal(err)
		}
		heads[0] = v
	}
	fmt.Printf("after 10 more commits the dataset has %d versions; checkouts stay partition-local\n",
		len(ds.Versions()))
	timeCheckout("after online commits")
}
