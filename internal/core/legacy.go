package core

import (
	"errors"
	"fmt"

	"orpheusdb/internal/engine"
)

// Legacy data models. Stores written before every CVD was partitioned hold
// CVDs under the data models of Section 3, split-by-rlist by default. A
// split-by-rlist CVD is a one-partition partitioned CVD under other table
// names, so a store upgrades it in place when it loads
// (UpgradeLegacyLayouts). The other four models are paper baselines that only
// the experiments reimplement; a CVD stored under one of them does not open.

// legacySplitByRlist is the catalog name of the former default model.
const legacySplitByRlist = "split-by-rlist"

// ErrUnservedModel marks a CVD, or a request to create one, that names a
// data model core does not serve.
var ErrUnservedModel = errors.New("data model not served")

func unservedModel(cvd, model string) error {
	return fmt.Errorf("core: CVD %q: %w: %q (only %s is)", cvd, ErrUnservedModel, model, PartitionedRlistModel)
}

// SetAside registers a CVD whose logged init named a data model core does
// not serve: a catalog row naming that model and no tables. Like a CVD a
// snapshot holds under such a model, it does not open (ErrUnservedModel),
// ListCVDs names it, and DropSetAside removes it.
func SetAside(db *engine.DB, name string, model ModelKind, pk []string) error {
	cat, err := ensureCatalog(db)
	if err != nil {
		return err
	}
	_, err = cat.Insert(catalogRow(name, model, pk))
	return err
}

// DropSetAside drops a CVD that does not open because its catalog row names
// a data model core does not serve: it removes the version, record,
// attribute and branch tables every model shares, then the row. A paper
// model's own tables are not core's to name and stay. CVD.Drop ends with it.
func DropSetAside(db *engine.DB, name string) error {
	for _, drop := range []func() error{
		newVersionManager(db, name).drop,
		newRecordManager(db, name).drop,
		newAttrManager(db, name).drop,
		newBranchManager(db, name).drop,
	} {
		if err := drop(); err != nil {
			return err
		}
	}
	cat := db.Table(catalogTable)
	if cat == nil {
		return nil
	}
	var drop []engine.RowID
	cat.Scan(func(id engine.RowID, row engine.Row) bool {
		if row[0].S == name {
			drop = append(drop, id)
		}
		return true
	})
	for _, id := range drop {
		cat.Delete(id)
	}
	return nil
}

// checkServed accepts the model names Init takes: empty, partitioned-rlist,
// or the legacy split-by-rlist, which is the layout a new CVD starts in.
func checkServed(cvd string, kind ModelKind) error {
	switch kind {
	case "", PartitionedRlistModel, legacySplitByRlist:
		return nil
	}
	return unservedModel(cvd, string(kind))
}

// UpgradeLegacyLayouts turns every split-by-rlist CVD in db into the
// one-partition partitioned CVD it already is: its data and versioning tables
// are renamed to partition 0's, every version is mapped to partition 0, and
// its catalog row then names partitioned-rlist. No record or rlist is copied.
// Each step is skipped when already done, so running it again, or after a
// crash halfway through, is safe. Call it before any CVD of db is opened.
func UpgradeLegacyLayouts(db *engine.DB) error {
	cat := db.Table(catalogTable)
	if cat == nil {
		return nil
	}
	type entry struct {
		id  engine.RowID
		row engine.Row
	}
	var legacy []entry
	cat.Scan(func(id engine.RowID, row engine.Row) bool {
		if row[1].S == legacySplitByRlist {
			legacy = append(legacy, entry{id, engine.CloneRow(row)})
		}
		return true
	})
	for _, e := range legacy {
		if err := upgradeSplitByRlist(db, e.row[0].S); err != nil {
			return fmt.Errorf("core: upgrading split-by-rlist CVD %q: %w", e.row[0].S, err)
		}
		e.row[1] = engine.StringValue(string(PartitionedRlistModel))
		if err := cat.Update(e.id, e.row); err != nil {
			return err
		}
	}
	return nil
}

// upgradeSplitByRlist renames one CVD's split-by-rlist tables to partition
// 0's and maps its versions there.
func upgradeSplitByRlist(db *engine.DB, cvd string) error {
	m := &partitionedRlist{db: db, cvd: cvd}
	for _, r := range [][2]string{
		{cvd + "_rl_data", m.dataName(0)},
		{cvd + "_rl_version", m.versionName(0)},
	} {
		if db.HasTable(r[0]) {
			if err := db.RenameTable(r[0], r[1]); err != nil {
				return err
			}
		}
	}
	vt, err := db.MustTable(m.versionName(0))
	if err != nil {
		return err
	}
	mt := db.Table(m.mapName())
	if mt == nil {
		if mt, err = m.createMap(); err != nil {
			return err
		}
	}
	var vids []engine.Value
	vt.Scan(func(_ engine.RowID, row engine.Row) bool {
		vids = append(vids, row[0])
		return true
	})
	ix := mt.Index("vid")
	for _, vid := range vids {
		if len(ix.Lookup(vid)) > 0 {
			continue
		}
		if _, err := mt.Insert(engine.Row{vid, engine.IntValue(0)}); err != nil {
			return err
		}
	}
	return nil
}
