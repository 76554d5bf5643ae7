package core

import (
	"sort"

	"orpheusdb/internal/bitmap"
	"orpheusdb/internal/engine"
	"orpheusdb/internal/vgraph"
)

// PartitionedModel is the extended interface of the partitioned split-by-
// rlist model, which the partition optimizer operates on.
type PartitionedModel interface {
	DataModel
	// NumPartitions returns the live partition count.
	NumPartitions() int
	// PartitionOf returns the physical partition holding a version.
	PartitionOf(v vgraph.VersionID) (int, bool)
	// PartitionRecords returns |Rk| for a physical partition.
	PartitionRecords(p int) int64
	// StorageRecords returns S = Σ|Rk|.
	StorageRecords() int64
	// CheckoutCost returns the current Cavg in records.
	CheckoutCost() float64
	// WeightedCheckoutCost returns Cavg reweighted by observed per-version
	// checkout frequencies (missing versions weigh 1; nil = CheckoutCost).
	WeightedCheckoutCost(freq map[vgraph.VersionID]int64) float64
	// SetOnlineParams configures online placement (δ*, γ in records).
	SetOnlineParams(deltaStar float64, gammaRecords int64)
	// PlanPartitionBatches plans a bounded-batch migration to the groups.
	PlanPartitionBatches(groups [][]vgraph.VersionID, batchRows int64) ([]PartitionBatch, error)
	// ApplyPartitionBatch executes one planned batch.
	ApplyPartitionBatch(b PartitionBatch) (int64, error)
	// PartitionStatus snapshots the live layout.
	PartitionStatus() *PartitionStatus
}

// reload rebuilds the partitioned model's caches from its
// tables after a database reload.
func (m *partitionedRlist) reload(cols []engine.Column) error {
	m.cols = dataColumns(cols)
	m.partOf = make(map[vgraph.VersionID]int)
	m.rlists = make(map[vgraph.VersionID]*bitmap.Bitmap)
	m.partRecs = make(map[int]*bitmap.Bitmap)
	m.partIDs = nil
	mt, err := m.db.MustTable(m.mapName())
	if err != nil {
		return err
	}
	mt.Scan(func(_ engine.RowID, row engine.Row) bool {
		m.partOf[vgraph.VersionID(row[0].I)] = int(row[1].I)
		return true
	})
	seenPart := make(map[int]bool)
	for _, p := range m.partOf {
		seenPart[p] = true
	}
	// Partition 0 exists even before the first commit.
	if m.db.HasTable(m.dataName(0)) {
		seenPart[0] = true
	}
	for p := range seenPart {
		m.partIDs = append(m.partIDs, p)
	}
	// Keep the partition walk order stable across reloads: cross-partition
	// fetches visit partIDs in order, and WAL replay of migration batches must
	// reproduce the live walk exactly.
	sort.Ints(m.partIDs)
	for _, p := range m.partIDs {
		if p >= m.nextPart {
			m.nextPart = p + 1
		}
		recs := bitmap.New()
		dt, err := m.db.MustTable(m.dataName(p))
		if err != nil {
			return err
		}
		dt.Scan(func(_ engine.RowID, row engine.Row) bool {
			recs.Add(row[0].I)
			return true
		})
		recs.Optimize()
		m.partRecs[p] = recs
		m.storageRecs += recs.Cardinality()
		vt, err := m.db.MustTable(m.versionName(p))
		if err != nil {
			return err
		}
		vt.Scan(func(_ engine.RowID, row engine.Row) bool {
			set := row[1].B
			if set == nil {
				// Pre-bitmap snapshot compatibility.
				set = bitmap.FromSlice(row[1].A)
			}
			m.rlists[vgraph.VersionID(row[0].I)] = set
			return true
		})
	}
	m.totalRecords = m.countMaxRid()
	return nil
}
