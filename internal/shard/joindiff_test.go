package shard

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"pathdb"
)

// joinDiffPaths: the branching subset of the differential sweep — every
// query carries at least one structural predicate, so the nested and join
// evaluators both do real work on every shard before the merge.
var joinDiffPaths = []string{
	"/site//text[keyword]",
	"/site//listitem[.//keyword]",
	"/site/regions//item[mailbox/mail]",
	"/site//open_auction[bidder/increase]",
	`/site//open_auction[privacy="Yes"]`,
	"/site//person[profile[interest]]",
	"/site//text[keyword|bold]",
	"/site//listitem[parlist/listitem|.//keyword]", // mixed-axis union
	"/site//item[payment][quantity]",
	"/site//keyword[ancestor::listitem]", // fallback branch inside XJoin
}

// mergedFingerprint renders a scatter-gather node merge byte-exactly:
// contributing shard, global order key, and name per line.
func mergedFingerprint(m *Merged) string {
	var b strings.Builder
	for _, sn := range m.Nodes {
		fmt.Fprintf(&b, "%d|%s|%s\n", sn.Shard, sn.Node.OrdPath(), sn.Node.Name())
	}
	return b.String()
}

// TestClusterJoinDifferential extends the join/nested differential across
// the scatter-gather path: for every branching query, the 4-shard merged
// node stream under the nested, join and cost-chosen evaluators is
// byte-identical to the reference merge of the nested results, and the
// merged count equals a single volume holding the same corpus.
func TestClusterJoinDifferential(t *testing.T) {
	cl := newTestCluster(t, Config{})
	db := singleVolume(t)
	ctx := context.Background()

	nonEmpty := 0
	for _, path := range joinDiffPaths {
		res, err := db.QueryCtx(ctx, path, pathdb.QueryOptions{PredEval: pathdb.PredNested})
		if err != nil {
			t.Fatalf("single volume %q: %v", path, err)
		}
		want := res.Count()

		ref := bufferedMerge(t, cl, path, pathdb.QueryOptions{PredEval: pathdb.PredNested})
		if ref.Count != want {
			t.Errorf("%q: merged nested count %d, single volume %d", path, ref.Count, want)
		}
		refFP := mergedFingerprint(ref)
		if refFP != "" {
			nonEmpty++
		}

		for _, pe := range []pathdb.PredEval{pathdb.PredNested, pathdb.PredJoin, pathdb.PredAuto} {
			m, err := cl.Query(ctx, path, pathdb.QueryOptions{PredEval: pe}, true)
			if err != nil {
				t.Fatalf("cluster %q [%v]: %v", path, pe, err)
			}
			if got := mergedFingerprint(m); got != refFP {
				t.Errorf("%q: merged stream diverges with %v (nested %d bytes, %v %d bytes)",
					path, pe, len(refFP), pe, len(got))
			}
		}
	}
	if nonEmpty < len(joinDiffPaths)/2 {
		t.Fatalf("only %d/%d differential queries matched nodes; fixture too small to be meaningful",
			nonEmpty, len(joinDiffPaths))
	}
}
