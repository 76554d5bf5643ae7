package experiments

import (
	"fmt"
	"time"

	"orpheusdb/internal/benchgen"
	"orpheusdb/internal/bitmap"
	"orpheusdb/internal/engine"
	"orpheusdb/internal/vgraph"
)

// Table2 generates the benchmark datasets at the given scale and reports
// their statistics (|V|, |R|, |E|, B, I, |R̂|), reproducing Table 2.
func Table2(names []string, scale float64, seed int64) (*Report, []*benchgen.Dataset, error) {
	rep := &Report{
		Title:  fmt.Sprintf("Table 2: dataset description (scale=%g)", scale),
		Header: []string{"dataset", "|V|", "|R|", "|E|", "|B|", "|I|", "|R^|", "|E|/|V|"},
	}
	var datasets []*benchgen.Dataset
	for _, name := range names {
		d, err := benchgen.Standard(name, scale, seed)
		if err != nil {
			return nil, nil, err
		}
		s := d.Stats()
		dup := "-"
		if s.DupR > 0 {
			dup = fmt.Sprintf("%d", s.DupR)
		}
		rep.Add(s.Name, s.V, s.R, s.E, s.B, s.I, dup, fmt.Sprintf("%.0f", s.AvgVSize))
		datasets = append(datasets, d)
	}
	return rep, datasets, nil
}

// Fig3Row is one (dataset, model) measurement of Figure 3.
type Fig3Row struct {
	Dataset      string
	Model        ModelKind
	StorageBytes int64
	CommitTime   time.Duration
	CheckoutTime time.Duration
}

// Fig3 reproduces Figure 3: for each dataset and data model, load every
// version, then measure (a) storage, (b) the time to commit the latest
// version back as a new version, and (c) the time to check out the latest
// version. Each layout is driven directly with the generator's record ids,
// so (b) times the layout's commit alone, not the middleware's record
// matching.
func Fig3(names []string, scale float64, seed int64, models []ModelKind) ([]Fig3Row, []*Report, error) {
	if len(models) == 0 {
		models = AllModelKinds()
	}
	var rows []Fig3Row
	for _, name := range names {
		d, err := benchgen.Standard(name, scale, seed)
		if err != nil {
			return nil, nil, err
		}
		// The paper's records carry 100 4-byte attributes; wide rows are
		// what makes a-table-per-version's ~10x storage overhead visible.
		// 20 attributes keeps that shape at laptop memory budgets.
		cfg := d.Config
		cfg.NumAttrs = 20
		d = benchgen.Generate(cfg)
		for _, kind := range models {
			row, err := fig3One(d, kind)
			if err != nil {
				return nil, nil, fmt.Errorf("fig3 %s/%s: %w", name, kind, err)
			}
			rows = append(rows, *row)
		}
	}
	storage := &Report{Title: "Figure 3a: storage size per data model", Header: []string{"dataset", "model", "storage"}}
	commit := &Report{Title: "Figure 3b: commit time per data model", Header: []string{"dataset", "model", "commit_time"}}
	checkout := &Report{Title: "Figure 3c: checkout time per data model", Header: []string{"dataset", "model", "checkout_time"}}
	for _, r := range rows {
		storage.Add(r.Dataset, string(r.Model), mb(r.StorageBytes))
		commit.Add(r.Dataset, string(r.Model), r.CommitTime)
		checkout.Add(r.Dataset, string(r.Model), r.CheckoutTime)
	}
	return rows, []*Report{storage, commit, checkout}, nil
}

// fig3One loads one dataset into one model and measures the primitives.
func fig3One(d *benchgen.Dataset, kind ModelKind) (*Fig3Row, error) {
	l, err := loadLayout(engine.NewDB(), d, kind)
	if err != nil {
		return nil, err
	}
	latest := d.Commits[len(d.Commits)-1].ID

	start := time.Now()
	recs, err := l.Checkout(latest)
	if err != nil {
		return nil, err
	}
	checkoutTime := time.Since(start)

	// Commit the checked-out records back unchanged as a child of latest:
	// every record is already stored, so none is fresh.
	rids := make([]int64, len(recs))
	for i, r := range recs {
		rids[i] = int64(r.RID)
	}
	members := bitmap.FromSlice(rids)
	start = time.Now()
	if err := l.Commit(latest+1, []vgraph.VersionID{latest}, recs, nil, members); err != nil {
		return nil, err
	}
	commitTime := time.Since(start)

	return &Fig3Row{
		Dataset:      d.Config.Name,
		Model:        kind,
		StorageBytes: l.StorageBytes(),
		CommitTime:   commitTime,
		CheckoutTime: checkoutTime,
	}, nil
}
