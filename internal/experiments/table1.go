package experiments

import (
	"fmt"

	"orpheusdb/internal/vgraph"
)

// Table 1 of the paper: the SQL each data model's checkout and commit
// translate to. The layouts in this package execute the equivalent physical
// plans; `orpheus-bench table1` prints the strings.

// CheckoutSQL returns the SQL translation for checking out version vid of
// dataset cvd into table dst under the given model.
func CheckoutSQL(kind ModelKind, cvd, dst string, vid vgraph.VersionID) string {
	switch kind {
	case CombinedTableModel:
		return fmt.Sprintf(
			"SELECT * INTO %s FROM %s_combined WHERE ARRAY[%d] <@ vlist;",
			dst, cvd, vid)
	case SplitByVlistModel:
		return fmt.Sprintf(
			"SELECT * INTO %s FROM %s_vl_data, "+
				"(SELECT rid AS rid_tmp FROM %s_vl_version WHERE ARRAY[%d] <@ vlist) AS tmp "+
				"WHERE rid = rid_tmp;",
			dst, cvd, cvd, vid)
	case SplitByRlistModel:
		return fmt.Sprintf(
			"SELECT * INTO %s FROM %s_rl_data, "+
				"(SELECT unnest(rlist) AS rid_tmp FROM %s_rl_version WHERE vid = %d) AS tmp "+
				"WHERE rid = rid_tmp;",
			dst, cvd, cvd, vid)
	case TablePerVersionModel:
		return fmt.Sprintf("SELECT * INTO %s FROM %s_tpv_v%d;", dst, cvd, vid)
	case DeltaModel:
		return fmt.Sprintf(
			"-- delta-based checkout of v%d traces the base chain via %s_delta_precedent, "+
				"discarding records seen in nearer deltas", vid, cvd)
	}
	return ""
}

// CommitSQL returns the SQL translation for committing staged table src back
// into dataset cvd as version vid under the given model.
func CommitSQL(kind ModelKind, cvd, src string, vid vgraph.VersionID) string {
	switch kind {
	case CombinedTableModel:
		return fmt.Sprintf(
			"UPDATE %s_combined SET vlist = vlist + %d WHERE rid IN (SELECT rid FROM %s);",
			cvd, vid, src)
	case SplitByVlistModel:
		return fmt.Sprintf(
			"UPDATE %s_vl_version SET vlist = vlist + %d WHERE rid IN (SELECT rid FROM %s);",
			cvd, vid, src)
	case SplitByRlistModel:
		return fmt.Sprintf(
			"INSERT INTO %s_rl_version VALUES (%d, ARRAY[SELECT rid FROM %s]);",
			cvd, vid, src)
	case TablePerVersionModel:
		return fmt.Sprintf("SELECT * INTO %s_tpv_v%d FROM %s;", cvd, vid, src)
	case DeltaModel:
		return fmt.Sprintf(
			"-- delta-based commit of %s stores the diff from its base version "+
				"and inserts (vid=%d, base) into %s_delta_precedent", src, vid, cvd)
	}
	return ""
}
