package core

import (
	"bytes"
	"slices"
	"sort"

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
// D_j is every document node matching test_j (a level: one whole-document
// Simple sub-plan, a near-linear scan over the storage layer's name-test
// bitmaps, then advanced by the pages each commit writes, shared by every
// branch and literal naming the test);
// S_m is D_m filtered by the literal comparison and any nested predicates;
// and S_j = semijoin(D_j, S_{j+1}) marks the D_j nodes with at least one
// S_{j+1} partner under step j+1's axis — a doc-order merge with an
// ancestor-chain stack (Stack-Tree style), O(|D_j| + |S_{j+1}|)
// comparisons. Candidates finally merge against S_1 the same way. Ancestor/descendant relations are ordpath
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

	// flush's scratch, kept across flushes: the batch's document order and
	// keys, and the three mark arrays of the merges.
	order []int
	ords  []ordpath.Key
	marks []bool

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

// Open opens the producer and borrows the instance buffers from the arena.
func (j *XJoin) Open() {
	j.input.Open()
	if j.buf == nil {
		j.buf, j.out = j.es.Arena.takeInsts(), j.es.Arena.takeInsts()
	}
	j.buf, j.out, j.outPos = j.buf[:0], j.out[:0], 0
	j.degraded = false
	j.compiled = nil
}

// Close returns the buffers and closes the producer.
func (j *XJoin) Close() {
	j.es.Arena.putInsts(j.buf)
	j.es.Arena.putInsts(j.out)
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

	// Candidates sorted by document order for the merge (a border-crossing
	// producer delivers them so); order maps sorted to arrival position.
	n := len(cands)
	j.order, j.ords = slices.Grow(j.order[:0], n)[:n], slices.Grow(j.ords[:0], n)[:n]
	j.marks = slices.Grow(j.marks[:0], 3*n)[:3*n]
	order, ords := j.order, j.ords
	keep := j.marks[:n]                            // by arrival position
	pass, scratch := j.marks[n:2*n], j.marks[2*n:] // by sorted position: per predicate; per branch, OR-ed into pass
	sorted := true
	for k := range order {
		order[k], keep[k] = k, true
		sorted = sorted && (k == 0 || ordpath.Compare(cands[k-1].Ord, cands[k].Ord) <= 0)
	}
	if !sorted {
		sort.Slice(order, func(a, b int) bool {
			return ordpath.Compare(cands[order[a]].Ord, cands[order[b]].Ord) < 0
		})
	}
	for k, idx := range order {
		ords[k] = cands[idx].Ord
	}

	for _, jp := range j.compiled {
		if jp.always {
			continue
		}
		clear(pass)
		for bi, br := range jp.branches {
			// Each union branch marks its own zeroed array: semiJoinMark's
			// stop-at-first-mark shortcut assumes every mark it encounters
			// covers a chain suffix toward the root, which marks left by a
			// child or attribute branch of the same union do not. The first
			// branch writes straight into the freshly cleared pass.
			dst := pass
			if bi > 0 {
				dst = scratch
				clear(scratch)
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
// What is document-only comes from the volume's derived cache: the levels
// always, and the S_1 of a branch that is a function of its levels alone
// under its branch key. A set that depends on a literal or a nested
// predicate is selected and merged from the levels on every query, so no key
// contains a literal and a generation is bounded by the distinct tests and
// branches of the traffic, not by its vocabulary. Hits are free (the work
// was done once, not skipped); the first join after a commit advances the
// generation by the pages the commit wrote (storage.AdvanceDerived).
func compileJoinPreds(es *EvalState, preds []xpath.Predicate) []joinPred {
	dcache, epoch, cacheable := es.Store.AdvanceDerived(es.Cancelled)
	out := make([]joinPred, 0, len(preds))
	for _, p := range preds {
		var jp joinPred
		for _, branch := range p.Paths {
			steps, joinable := joinableSteps(branch)
			if !joinable {
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
			key, cached := "", false
			if cacheable && fromLevels(steps, p) {
				key = joinBranchKey(es.Store.Dict(), steps)
				if v, ok := dcache.Get(epoch, key); ok {
					set, cached = v.([]ordpath.Key), true
				}
			}
			if !cached {
				set = branchFilterSet(es, steps, p)
				if key != "" && !es.Cancelled() { // a cancelled build is partial
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

// joinBranchKey names the S_1 of one branch whose set comes from its
// levels alone (fromLevels: no literal, no nested predicate) in the derived
// cache: the canonical rendition of the simplified steps.
func joinBranchKey(dict *xmltree.Dictionary, steps []xpath.Step) string {
	return stepsKey("xjoin:", dict, steps)
}

// fromLevels reports whether the branch's filter set is a function of its
// levels alone — no literal to compare, no nested predicate to probe — so
// that it may be cached, and carried across a commit that moves no level.
func fromLevels(steps []xpath.Step, p xpath.Predicate) bool {
	return !p.HasLit && !slices.ContainsFunc(steps, func(s xpath.Step) bool { return len(s.Predicates) > 0 })
}

// LevelKey names a step's level in the derived cache: the rendition of
// descendant-or-self::test, or of the attribute test.
func LevelKey(dict *xmltree.Dictionary, s xpath.Step) string {
	ax := xpath.DescendantOrSelf
	if s.Axis == xpath.AttributeAxis {
		ax = xpath.AttributeAxis
	}
	return "level:" + ax.String() + "::" + s.Test.Render(dict)
}

// levelOf returns the level of the step's node test, with the string values
// when vals is set: from the derived cache, or — what is missing — built
// now and admitted. A build that the query's context cut short is partial
// and admits nothing; one that unwinds on a page fault never gets here.
func levelOf(es *EvalState, step xpath.Step, vals bool) *storage.Level {
	dcache, epoch, cacheable := es.Store.AdvanceDerived(es.Cancelled)
	var lv *storage.Level
	key := ""
	if cacheable {
		key = LevelKey(es.Store.Dict(), step)
		if v, ok := dcache.Get(epoch, key); ok {
			lv = v.(*storage.Level)
		}
	}
	if lv != nil && (!vals || lv.Ends != nil) {
		return lv
	}
	if lv == nil {
		lv = buildLevel(es, step)
	} else {
		lv = &storage.Level{Test: lv.Test, Attr: lv.Attr, Ords: lv.Ords, IDs: lv.IDs}
	}
	if vals {
		lv.Ends = make([]uint32, len(lv.IDs))
		for k, id := range lv.IDs {
			lv.Vals = es.Store.AppendStringValue(lv.Vals, id)
			lv.Ends[k] = uint32(len(lv.Vals))
		}
	}
	if cacheable && !es.Cancelled() {
		dcache.Put(epoch, key, lv)
	}
	return lv
}

// buildLevel enumerates every document node matching the step's node test
// with a whole-document Simple sub-plan.
func buildLevel(es *EvalState, step xpath.Step) *storage.Level {
	attr := step.Axis == xpath.AttributeAxis
	sub := []xpath.Step{{Axis: xpath.DescendantOrSelf, Test: step.Test}}
	if attr {
		sub = []xpath.Step{
			{Axis: xpath.DescendantOrSelf, Test: xpath.AnyNode()},
			{Axis: xpath.AttributeAxis, Test: step.Test},
		}
	}
	p := BuildPlan(es.Store, sub, es.Store.Roots(), StrategySimple, PlanOptions{Ctx: es.Ctx})
	results := p.Run()
	if !p.Ordered {
		SortResults(results)
	}
	ords, ids := make([]ordpath.Key, len(results)), make([]storage.NodeID, len(results))
	for k, r := range results {
		ords[k], ids[k] = r.Ord, r.Node
	}
	return storage.NewLevel(step.Test, attr, ords, ids)
}

// selectLevel returns the keys of the step's level that pass the step's
// nested predicates (probed per entry) and, when lit is set, whose string
// value equals the literal (a comparison per entry, charged as a set
// operation). An unfiltered level is returned as cached: sets are read-only.
func selectLevel(es *EvalState, step xpath.Step, lit *xpath.Predicate) []ordpath.Key {
	lv := levelOf(es, step, lit != nil)
	if lit == nil && len(step.Predicates) == 0 {
		return lv.Ords
	}
	if lit != nil {
		es.chargeSetOp(len(lv.Ords))
	}
	nested := predProbes{es: es, preds: step.Predicates}
	var out []ordpath.Key
	start := uint32(0)
	for k, ord := range lv.Ords {
		if lit != nil {
			v := lv.Vals[start:lv.Ends[k]]
			start = lv.Ends[k]
			if string(v) != lit.Literal {
				continue
			}
		}
		if nested.matches(lv.IDs[k]) {
			out = append(out, ord)
		}
	}
	return out
}

// JoinNeed is what a structural join over one predicate branch would find
// in the derived cache: whether the join can express the branch, and —
// unless the branch's S_1 is resident — per step the key of the level it
// would have to build first ("" for a resident level).
type JoinNeed struct {
	Joinable bool
	Missing  []string // nil: S_1 resident, or nothing to join
}

// JoinNeeds probes the store's derived cache, at the store's version epoch:
// what is resident — or in a generation the query's first read advances to
// that epoch — need not be built.
func JoinNeeds(st *storage.Store, branch *xpath.Path, p xpath.Predicate) JoinNeed {
	steps, joinable := joinableSteps(branch)
	n := JoinNeed{Joinable: joinable && !(len(steps) == 0 && p.HasLit)}
	if !joinable || len(steps) == 0 {
		return n
	}
	dcache, epoch, ok := st.Derived()
	if ok && fromLevels(steps, p) && dcache.Contains(epoch, joinBranchKey(st.Dict(), steps)) {
		return n
	}
	n.Missing = make([]string, len(steps))
	for k, s := range steps {
		if key := LevelKey(st.Dict(), s); !ok || !dcache.Contains(epoch, key) {
			n.Missing[k] = key
		}
	}
	return n
}

// AutoPredEval is what PredAuto resolves to for a plan of path from
// contexts on a view: XJoin when some predicate branch of the path is
// joinable and the derived generation the view reaches has room for the
// entries the plan lacks (planNeeds), so that they are built once and every
// later read joins over them; PredFilter otherwise — no joinable branch, a
// write transaction's overlay, a superseded snapshot or a full generation,
// where a join would enumerate its levels on every read.
func AutoPredEval(st *storage.Store, path []xpath.Step, contexts []storage.NodeID) PredEval {
	pe, _ := predPlan(st, path, contexts, PredAuto)
	return pe
}

// planNeeds reports whether some predicate branch of path is joinable, and
// the derived-cache keys a join plan of path lacks, each once: the levels
// its branches join over and, when it reads the path from levels (its
// candidate set under key, levelRead), the path's levels and candidate set.
func planNeeds(st *storage.Store, path []xpath.Step, key string) (joinable bool, missing []string) {
	add := func(key string) {
		if key != "" && !slices.Contains(missing, key) {
			missing = append(missing, key)
		}
	}
	for _, s := range path {
		for _, p := range s.Predicates {
			for _, branch := range p.Paths {
				need := JoinNeeds(st, branch, p)
				joinable = joinable || need.Joinable
				for _, key := range need.Missing {
					add(key)
				}
			}
		}
	}
	for _, lk := range levelNeeds(st, path, key) {
		add(lk)
	}
	return joinable, missing
}

// joinableSteps returns the branch's steps with identity self::node() steps
// removed, and whether the join can express every axis that remains. The
// steps are shared with the branch unless there was one to remove.
func joinableSteps(branch *xpath.Path) ([]xpath.Step, bool) {
	steps := branch.Simplify().Steps
	if slices.ContainsFunc(steps, isIdentity) {
		steps = slices.DeleteFunc(slices.Clone(steps), isIdentity) // .//a
	}
	for k, s := range steps {
		switch s.Axis {
		case xpath.Child, xpath.Descendant, xpath.DescendantOrSelf:
		case xpath.AttributeAxis:
			if k != len(steps)-1 {
				return steps, false // attributes have no children to continue into
			}
		default:
			return steps, false
		}
	}
	return steps, true
}

func isIdentity(s xpath.Step) bool {
	return s.Axis == xpath.Self && s.Test.Kind == xpath.KindAny && len(s.Predicates) == 0
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
// remaining steps, bottom-up over the levels as described on XJoin.
func branchFilterSet(es *EvalState, steps []xpath.Step, p xpath.Predicate) []ordpath.Key {
	m := len(steps)
	var lit *xpath.Predicate
	if p.HasLit {
		lit = &p
	}
	set := selectLevel(es, steps[m-1], lit)
	for lvl := m - 2; lvl >= 0 && len(set) > 0; lvl-- {
		djs := selectLevel(es, steps[lvl], nil)
		mark := make([]bool, len(djs))
		semiJoinMark(djs, set, relOf(steps[lvl+1].Axis), mark)
		es.chargeSetOp(len(djs))
		set = make([]ordpath.Key, 0, len(djs)/4)
		for k, ok := range mark {
			if ok {
				set = append(set, djs[k])
			}
		}
	}
	return set
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

// ancestorOrSelf reports whether a is b or one of its ancestors: an
// ancestor's key is a byte prefix of its descendants' keys.
func ancestorOrSelf(a, b ordpath.Key) bool { return bytes.HasPrefix(b, a) }
