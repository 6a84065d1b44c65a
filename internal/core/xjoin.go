package core

import (
	"sort"
	"strings"

	"pathdb/internal/ordpath"
	"pathdb/internal/storage"
	"pathdb/internal/xmltree"
	"pathdb/internal/xpath"
)

// XJoin evaluates the predicates of location step i set-at-a-time, as
// stack-based structural semi-joins over ordpath keys, replacing
// PredFilter's per-candidate nested-loop probes.
//
// The operator buffers the step-i candidates its input produces and, when
// the input is exhausted, filters the whole batch in one pass against a
// per-predicate filter set: the document-ordered ord keys of every node
// that roots a full match of the nested branch path. The filter set is
// candidate independent, so it is computed once (on the first flush) and
// reused across rounds — a flush may emit survivors whose continuation
// through the steps above produces new border crossings, which the
// scheduler feeds back as fresh candidates, so Next keeps alternating
// between pulling and flushing until both sides are dry.
//
// Filter sets are built bottom-up over the branch's m location steps:
// D_j is every document node matching test_j (one Simple sub-plan per
// level, a whole-document enumeration that the storage layer's name-test
// bitmaps make a near-linear scan); S_m is D_m filtered by the literal
// comparison and any nested predicates; and S_j = semijoin(D_j, S_{j+1})
// marks the D_j nodes with at least one S_{j+1} partner under step j+1's
// axis — a doc-order merge with an ancestor-chain stack (Stack-Tree
// style), O(|D_j| + |S_{j+1}|) comparisons. Candidates finally merge
// against S_1 the same way. Ancestor/descendant relations are ordpath
// prefix tests; parent/child adds a level check; attributes share their
// owner's ord, so the attribute axis joins on key equality.
//
// Union branches whose axes the join cannot express (parent, ancestor,
// sibling axes) fall back to per-candidate probes, but only for
// candidates no joinable branch already accepted (the predicate is
// existential). Everything that is not a right-complete step-i instance
// passes through unchanged, exactly like PredFilter, so the
// XAssembly↔XSchedule feedback loop keeps flowing while the batch
// accumulates.
type XJoin struct {
	es    *EvalState
	input Operator
	i     int
	preds []xpath.Predicate

	// probes evaluates the predicates one candidate at a time — the exact
	// PredFilter behaviour — in degraded and fallback mode.
	probes predProbes

	compiled []joinPred // lazily built on first flush, reused across rounds
	buf      []Instance // right-complete step-i candidates awaiting the join
	out      []Instance // survivors of the last flush
	outPos   int

	// degraded switches to immediate per-candidate evaluation (the exact
	// PredFilter behaviour) when the buffer outgrows the plan's memory
	// limit — the join's analogue of XAssembly's fallback mode.
	degraded bool
}

// NewXJoin builds the structural-join filter for step i (whose predicates
// it reads from the shared state's path).
func NewXJoin(es *EvalState, input Operator, i int) *XJoin {
	preds := es.Path[i-1].Predicates
	return &XJoin{es: es, input: input, i: i, preds: preds, probes: predProbes{es: es, preds: preds}}
}

// Open opens the producer.
func (j *XJoin) Open() {
	j.input.Open()
	j.buf = j.buf[:0]
	j.out = j.out[:0]
	j.outPos = 0
	j.degraded = false
	j.compiled = nil
}

// Close closes the producer.
func (j *XJoin) Close() {
	j.buf, j.out = nil, nil
	j.input.Close()
}

// Next returns the next instance: pass-throughs immediately, step-i
// candidates after they survived a batch flush.
func (j *XJoin) Next() (Instance, bool) {
	for {
		if j.outPos < len(j.out) {
			out := j.out[j.outPos]
			j.outPos++
			return out, true
		}
		if j.es.Cancelled() {
			return Instance{}, false
		}
		in, ok := j.input.Next()
		if !ok {
			if len(j.buf) == 0 {
				return Instance{}, false
			}
			j.flush()
			continue
		}
		if in.SR != j.i || in.NRBorder {
			return in, true
		}
		j.es.chargeTuple()
		if j.degraded || j.es.Fallback() {
			if j.probes.matches(in.NR) {
				return in, true
			}
			continue
		}
		if in.Ord == nil {
			// Ord is normally captured by XStep while the candidate's
			// cluster was loaded; resolve it from the swizzle cache when an
			// unusual producer left it unset.
			in.Ord = j.es.Store.Swizzle(in.NR).OrdKey()
		}
		j.buf = append(j.buf, in.dropCur())
		if j.es.MemLimit > 0 && len(j.buf) > j.es.MemLimit {
			j.degrade()
		}
	}
}

// degrade abandons batching: buffered candidates are filtered with
// per-candidate probes right away and the operator stays in that mode.
func (j *XJoin) degrade() {
	j.degraded = true
	for _, in := range j.buf {
		if j.probes.matches(in.NR) {
			j.out = append(j.out, in)
		}
	}
	j.buf = j.buf[:0]
}

// flush joins the buffered batch against the per-predicate filter sets
// and moves the survivors (in arrival order) to the output queue.
func (j *XJoin) flush() {
	if j.compiled == nil {
		j.compiled = compileJoinPreds(j.es, j.preds)
	}
	cands := j.buf
	j.buf = j.buf[:0]
	j.out = j.out[:0]
	j.outPos = 0

	// Candidates sorted by document order for the merge; ord maps the
	// sorted position back to the arrival position.
	order := make([]int, len(cands))
	for k := range order {
		order[k] = k
	}
	sort.Slice(order, func(a, b int) bool {
		return ordpath.Compare(cands[order[a]].Ord, cands[order[b]].Ord) < 0
	})
	ords := make([]ordpath.Key, len(order))
	for k, idx := range order {
		ords[k] = cands[idx].Ord
	}

	keep := make([]bool, len(cands)) // by arrival position
	for k := range keep {
		keep[k] = true
	}
	pass := make([]bool, len(cands))    // by sorted position, reused per predicate
	scratch := make([]bool, len(cands)) // per-branch marks, OR-ed into pass
	for _, jp := range j.compiled {
		if jp.always {
			continue
		}
		for k := range pass {
			pass[k] = false
		}
		for bi, br := range jp.branches {
			// Each union branch marks its own zeroed array: semiJoinMark's
			// stop-at-first-mark shortcut assumes every mark it encounters
			// covers a chain suffix toward the root, which marks left by a
			// child or attribute branch of the same union do not. The first
			// branch writes straight into the freshly cleared pass.
			dst := pass
			if bi > 0 {
				dst = scratch
				for k := range scratch {
					scratch[k] = false
				}
			}
			semiJoinMark(ords, br.set, br.rel, dst)
			if bi > 0 {
				for k, v := range scratch {
					if v {
						pass[k] = true
					}
				}
			}
		}
		j.es.chargeSetOp(len(cands))
		for k, idx := range order {
			hit := pass[k]
			if !hit && keep[idx] {
				// Existential union: only candidates no joinable branch
				// accepted pay a per-candidate probe on the leftovers.
				for _, pr := range jp.fallback {
					if pr.run(cands[idx].NR) {
						hit = true
						break
					}
				}
			}
			keep[idx] = keep[idx] && hit
		}
	}
	for k, in := range cands {
		if keep[k] {
			j.out = append(j.out, in)
		}
	}
}

// relKind is the structural relation a joinable axis induces between a
// level-(j-1) node and its level-j partner.
type relKind uint8

const (
	relChild      relKind = iota // proper ancestor exactly one level up
	relDesc                      // proper ancestor (ordpath prefix)
	relDescOrSelf                // ancestor or the node itself
	relAttr                      // attribute: shares the owner's ord key
)

// joinPred is one compiled predicate: the joinable union branches with
// their filter sets, plus the branches that need per-candidate probes.
type joinPred struct {
	always   bool // a trivially true branch ([.]) accepts everything
	branches []joinBranch
	fallback []*probe
}

// joinBranch is one joinable union branch reduced to a filter set: the
// doc-ordered ord keys of every node that roots a full branch match, and
// the relation connecting a candidate to them (the first step's axis).
type joinBranch struct {
	rel relKind
	set []ordpath.Key
}

// compileJoinPreds builds the filter sets for every predicate of the step.
//
// Filter sets are document-only — they depend on the branch path, the
// literal, and the document, never on the candidates — so they are served
// from the volume's epoch-keyed derived cache when a prior query over the
// same version already paid for the whole-document enumerations. Hits are
// free (like swizzle-cache hits: the work was done once, not skipped); a
// commit advances the epoch and the first join after it recomputes.
func compileJoinPreds(es *EvalState, preds []xpath.Predicate) []joinPred {
	dcache, epoch, cacheable := es.Store.Derived()
	out := make([]joinPred, 0, len(preds))
	for _, p := range preds {
		var jp joinPred
		for _, branch := range p.Paths {
			steps := joinableSteps(branch)
			if steps == nil {
				jp.fallback = append(jp.fallback, newProbe(es, branch, p))
				continue
			}
			if len(steps) == 0 {
				// The branch is the candidate itself: [.] is always true,
				// [.="lit"] compares the candidate's own string value —
				// per-candidate by nature.
				if p.HasLit {
					jp.fallback = append(jp.fallback, newProbe(es, branch, p))
				} else {
					jp.always = true
				}
				continue
			}
			var set []ordpath.Key
			var key string
			cached := false
			if cacheable {
				key = joinBranchKey(es.Store.Dict(), steps, p)
				if v, ok := dcache.Get(epoch, key); ok {
					set = v.([]ordpath.Key)
					cached = true
				}
			}
			if !cached {
				set = branchFilterSet(es, steps, p)
				if cacheable {
					// Detach the keys from the decoded page images they
					// alias before publishing, so a cached generation never
					// pins whole clusters in memory.
					set = cloneKeys(set)
					dcache.Put(epoch, key, set)
				}
			}
			jp.branches = append(jp.branches, joinBranch{
				rel: relOf(steps[0].Axis),
				set: set,
			})
		}
		out = append(out, jp)
	}
	return out
}

// joinBranchKey names one branch filter set in the derived cache: the
// canonical rendition of the simplified steps (nested predicates included)
// plus the step predicate's literal comparison, if any.
func joinBranchKey(dict *xmltree.Dictionary, steps []xpath.Step, p xpath.Predicate) string {
	var b strings.Builder
	b.WriteString("xjoin:")
	for _, s := range steps {
		b.WriteByte('/')
		b.WriteString(s.Render(dict))
	}
	if p.HasLit {
		b.WriteString("\x00=")
		b.WriteString(p.Literal)
	}
	return b.String()
}

// cloneKeys copies a filter set into one private backing array. Empty
// sets come back non-nil so they survive the cache round-trip as a
// present (if hollow) value rather than decaying into a miss.
func cloneKeys(set []ordpath.Key) []ordpath.Key {
	if len(set) == 0 {
		return []ordpath.Key{}
	}
	n := 0
	for _, k := range set {
		n += len(k)
	}
	buf := make([]byte, 0, n)
	out := make([]ordpath.Key, len(set))
	for i, k := range set {
		buf = append(buf, k...)
		out[i] = ordpath.Key(buf[len(buf)-len(k):])
	}
	return out
}

// JoinBuildCached reports whether every joinable branch of the predicate
// has its filter set resident in the store's derived cache at the store's
// version epoch. The build half of the structural join — the
// whole-document enumerations — is then already paid, so a cost model
// should charge only the doc-order merges (the same way buffer-aware
// optimizers discount pages known to be resident).
func JoinBuildCached(st *storage.Store, p xpath.Predicate) bool {
	dcache, epoch, ok := st.Derived()
	if !ok {
		return false
	}
	dict := st.Dict()
	any := false
	for _, branch := range p.Paths {
		steps := joinableSteps(branch)
		if len(steps) == 0 {
			continue // non-joinable or identity branches build no set
		}
		if !dcache.Contains(epoch, joinBranchKey(dict, steps, p)) {
			return false
		}
		any = true
	}
	return any
}

// JoinCompatible reports whether XJoin evaluates every branch of the
// predicate set-at-a-time — no per-candidate fallback probes. The cost
// model (internal/plan) checks this before costing a structural join.
func JoinCompatible(p xpath.Predicate) bool {
	for _, branch := range p.Paths {
		steps := joinableSteps(branch)
		if steps == nil || (len(steps) == 0 && p.HasLit) {
			return false
		}
	}
	return true
}

// joinableSteps returns the branch's steps with identity self::node()
// steps removed, or nil when some axis the join cannot express remains.
func joinableSteps(branch *xpath.Path) []xpath.Step {
	simplified := branch.Simplify().Steps
	steps := make([]xpath.Step, 0, len(simplified))
	for _, s := range simplified {
		if s.Axis == xpath.Self && s.Test.Kind == xpath.KindAny && len(s.Predicates) == 0 {
			continue // identity step: .//a
		}
		steps = append(steps, s)
	}
	for k, s := range steps {
		switch s.Axis {
		case xpath.Child, xpath.Descendant, xpath.DescendantOrSelf:
		case xpath.AttributeAxis:
			if k != len(steps)-1 {
				return nil // attributes have no children to continue into
			}
		default:
			return nil
		}
	}
	return steps
}

func relOf(a xpath.Axis) relKind {
	switch a {
	case xpath.Child:
		return relChild
	case xpath.Descendant:
		return relDesc
	case xpath.DescendantOrSelf:
		return relDescOrSelf
	case xpath.AttributeAxis:
		return relAttr
	default:
		panic("core: axis is not joinable")
	}
}

// branchFilterSet computes S_1 for one branch: the ord keys of every
// document node matching step 1's test that roots a full match of the
// remaining steps, bottom-up as described on XJoin.
func branchFilterSet(es *EvalState, steps []xpath.Step, p xpath.Predicate) []ordpath.Key {
	m := len(steps)
	nested := predProbes{es: es, preds: steps[m-1].Predicates}
	set := levelNodes(es, steps[m-1], func(r Result) bool {
		if p.HasLit && es.Store.StringValue(r.Node) != p.Literal {
			return false
		}
		return nested.matches(r.Node)
	})
	for lvl := m - 2; lvl >= 0; lvl-- {
		if len(set) == 0 {
			return nil
		}
		nested := predProbes{es: es, preds: steps[lvl].Predicates}
		djs := levelNodes(es, steps[lvl], func(r Result) bool { return nested.matches(r.Node) })
		mark := make([]bool, len(djs))
		semiJoinMark(djs, set, relOf(steps[lvl+1].Axis), mark)
		es.chargeSetOp(len(djs))
		kept := djs[:0]
		for k, ok := range mark {
			if ok {
				kept = append(kept, djs[k])
			}
		}
		set = kept
	}
	return set
}

// levelNodes enumerates every document node matching the step's node test
// (via a whole-document Simple sub-plan) and returns the doc-ordered ord
// keys of those accepted by keepFn.
func levelNodes(es *EvalState, step xpath.Step, keepFn func(Result) bool) []ordpath.Key {
	var sub []xpath.Step
	if step.Axis == xpath.AttributeAxis {
		sub = []xpath.Step{
			{Axis: xpath.DescendantOrSelf, Test: xpath.AnyNode()},
			{Axis: xpath.AttributeAxis, Test: step.Test},
		}
	} else {
		sub = []xpath.Step{{Axis: xpath.DescendantOrSelf, Test: step.Test}}
	}
	plan := BuildPlan(es.Store, sub, es.Store.Roots(), StrategySimple, PlanOptions{Ctx: es.Ctx})
	results := plan.Run()
	out := make([]ordpath.Key, 0, len(results))
	for _, r := range results {
		if keepFn(r) {
			out = append(out, r.Ord)
		}
	}
	sort.Slice(out, func(a, b int) bool { return ordpath.Compare(out[a], out[b]) < 0 })
	return out
}

// semiJoinMark merges anc (doc-ordered candidate/ancestor-side keys) with
// desc (doc-ordered partner keys) and sets mark[k] for every anc[k] with
// at least one desc partner under rel. One pass: document order puts an
// ancestor before its descendants, so an explicit stack of the current
// anc ancestor chain replaces per-pair containment checks.
//
// The relDesc/relDescOrSelf cases stop re-marking at the first already
// marked chain entry, which is only sound while every mark in the array
// covers an ancestor-closed chain suffix — true for marks those two cases
// set themselves, false for relChild/relAttr marks. Callers combining
// union branches must therefore give each branch a zeroed array and OR
// the results, never share one array across semiJoinMark calls.
func semiJoinMark(anc, desc []ordpath.Key, rel relKind, mark []bool) {
	if len(anc) == 0 || len(desc) == 0 {
		return
	}
	if rel == relAttr {
		// Attributes carry their owner's ord key: an equality merge.
		ai := 0
		for _, d := range desc {
			for ai < len(anc) && ordpath.Compare(anc[ai], d) < 0 {
				ai++
			}
			for k := ai; k < len(anc) && ordpath.Compare(anc[k], d) == 0; k++ {
				mark[k] = true
			}
		}
		return
	}
	var stack []int // indices into anc, the current ancestor-or-self chain
	ai := 0
	for _, d := range desc {
		for ai < len(anc) && ordpath.Compare(anc[ai], d) <= 0 {
			for len(stack) > 0 && !ancestorOrSelf(anc[stack[len(stack)-1]], anc[ai]) {
				stack = stack[:len(stack)-1]
			}
			stack = append(stack, ai)
			ai++
		}
		for len(stack) > 0 && !ancestorOrSelf(anc[stack[len(stack)-1]], d) {
			stack = stack[:len(stack)-1]
		}
		switch rel {
		case relDescOrSelf:
			// Every chain entry relates to d; entries below the first
			// marked one were marked together with it earlier (marking
			// always covers a chain suffix toward the root), so stop there.
			for t := len(stack) - 1; t >= 0 && !mark[stack[t]]; t-- {
				mark[stack[t]] = true
			}
		case relDesc:
			t := len(stack) - 1
			for t >= 0 && ordpath.Compare(anc[stack[t]], d) == 0 {
				t-- // proper ancestors only: skip the or-self entries
			}
			for ; t >= 0 && !mark[stack[t]]; t-- {
				mark[stack[t]] = true
			}
		case relChild:
			dl := d.Level()
			for t := len(stack) - 1; t >= 0; t-- {
				l := anc[stack[t]].Level()
				if l < dl-1 {
					break
				}
				if l == dl-1 && ordpath.Compare(anc[stack[t]], d) != 0 {
					mark[stack[t]] = true
				}
			}
		}
	}
}

func ancestorOrSelf(a, b ordpath.Key) bool {
	return ordpath.Compare(a, b) == 0 || a.IsAncestorOf(b)
}
