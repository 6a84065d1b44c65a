package main

import (
	"pathdb"

	"pathdb/benchmark/load"
)

// api is the public surface a workload's clients call.
type api uint8

const (
	apiStream api = iota // Session.Stream, drained
	apiDo                // Session.Do
	apiHTTP              // POST /v1/query on a loopback listener
)

// volume is the fixture a workload runs against. The document is part of
// the workload's definition and does not change with the seed (the seed
// decides the requests); docSeed and layoutSeed are fixed for that reason.
type volume struct {
	entityScale float64
	bufferPages int // 0: the library default (1000)
	layout      pathdb.Layout
	shards      int // 0: one volume behind an engine
}

const (
	docSeed    = 20050614
	layoutSeed = 7
)

type workload struct {
	name string
	why  string
	vol  volume
	api  api
	// round is the length of the request list one round replays: about a
	// second's work on the seed commit, and at least 100 streamed reads so
	// that a round has a 90th percentile. It is frozen: a faster program
	// replays the same list more often in a run.
	round int
	// traced is the length of the list the traced run replays, whatever
	// its --seconds: half of it in the counts pass, a fifth in each of the
	// one-client passes. It is sized for a run of about twenty seconds.
	traced int
	spec   load.Spec
}

// XMark paths of the paper's evaluation (Q6', Q7, Q15) and two selective
// child paths.
const (
	q6  = "/site/regions//item"
	q15 = "/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword"

	personName  = "/site/people/person/name"
	bidIncrease = "/site/open_auctions/open_auction/bidder/increase"
)

var q7 = []string{"/site//description", "/site//annotation", "/site//emailaddress"}

// flatMix is the heavy-tailed flat-path mix: half Q6', a quarter Q7, an
// eighth Q15, a sixteenth each of the two child paths.
func flatMix() []load.Class {
	w := load.HeavyTail(5)
	return []load.Class{
		{Weight: w[0], Paths: []string{q6}},
		{Weight: w[1], Paths: q7},
		{Weight: w[2], Paths: []string{q15}},
		{Weight: w[3], Paths: []string{personName}},
		{Weight: w[4], Paths: []string{bidIncrease}},
	}
}

// literalWords is the pool the literal-valued predicates draw from: every
// word occurs as a whole keyword somewhere in the generated document.
var literalWords = []string{
	"soul", "house", "malicious", "fortune", "attack", "rapid", "rebuild", "golden",
	"ships", "crew", "merchant", "duty", "iron", "crown", "castle", "silver",
	"stone", "bridge", "harbour", "winter", "summer", "spring", "autumn", "journey",
	"letter", "answer", "question", "market", "garden", "mountain", "river", "forest",
	"village", "captain", "soldier", "doctor", "lawyer", "king", "queen", "prince",
	"princess", "knight", "squire", "farmer", "hunter", "miller", "baker", "butcher",
	"purple", "orange", "yellow", "crimson", "scarlet", "azure", "emerald", "amber",
	"ivory", "ebony", "marble", "quiet", "loud", "gentle", "fierce", "brave",
}

var workloads = []*workload{
	{
		name:   "flat_warm",
		why:    "volume fits the pool: time goes to storage navigation, core operators, engine dispatch and the cursor; an I/O-side change must leave it flat",
		vol:    volume{entityScale: 0.1},
		api:    apiStream,
		round:  340,
		traced: 3400,
		spec:   load.Spec{Classes: flatMix()},
	},
	{
		name:   "flat_cold",
		why:    "working set 14x the 90-page pool on a shuffled layout: vdisk seeks, buffer replacement, page decode and XSchedule reordering do the work; unions reach MultiPlan",
		vol:    volume{entityScale: 0.2, bufferPages: 90, layout: pathdb.Shuffled},
		api:    apiDo,
		round:  110,
		traced: 440,
		spec: load.Spec{Classes: []load.Class{
			{Weight: 5, Paths: []string{
				q15, personName, bidIncrease,
				"/site/closed_auctions/closed_auction/price",
				"/site/categories/category/name",
				"/site/people/person/address/city",
			}},
			{Weight: 2, Paths: []string{
				"/site/people/person/name | /site/people/person/emailaddress | /site/people/person/phone",
				"/site/open_auctions/open_auction/initial | /site/open_auctions/open_auction/current | /site/open_auctions/open_auction/reserve",
				"/site/closed_auctions/closed_auction/price | /site/closed_auctions/closed_auction/date | /site/closed_auctions/closed_auction/quantity",
			}},
			{Weight: 1, Paths: []string{"/site//description"}},
		}},
	},
	{
		name:   "branch_sorted",
		why:    "branching predicates, half of them sorted: exercises XJoin, the derived cache, ordpath comparison and the sort barrier, which flat paths bypass",
		vol:    volume{entityScale: 0.1},
		api:    apiStream,
		round:  150,
		traced: 1000,
		spec: load.Spec{
			Classes: []load.Class{
				{Weight: 3, Paths: []string{
					"/site//item[mailbox/mail//keyword]",
					"/site//parlist[(listitem/parlist){1,2}]",
				}},
				{Weight: 4, Paths: []string{
					`/site//item[.//keyword="%s"]`,
					`/site//closed_auction[annotation//keyword="%s"]`,
				}},
				{Weight: 1, Sorted: true, Paths: []string{
					"/site//item[mailbox/mail//keyword] | /site//open_auction[annotation//keyword]",
				}},
			},
			Words:         literalWords,
			SortAlternate: true,
		},
	},
	{
		name:   "mixed_rw",
		why:    "flat_warm reads with a quarter write transactions: every commit advances the epoch, so a cache that helps flat_warm but costs invalidation shows here",
		vol:    volume{entityScale: 0.1},
		api:    apiStream,
		round:  400,
		traced: 4000,
		spec:   load.Spec{Classes: flatMix(), WriteFrac: 0.25},
	},
	{
		name:   "served_sharded",
		why:    "2 shards behind the HTTP router, node streams over NDJSON plus a fifth count-only: the only workload crossing server encode/flush and shard scatter/merge",
		vol:    volume{entityScale: 0.1, shards: 2},
		api:    apiHTTP,
		round:  200,
		traced: 1600,
		spec:   load.Spec{Classes: flatMix(), CountFrac: 0.2},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
