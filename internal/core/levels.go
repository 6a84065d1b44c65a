package core

import (
	"fmt"
	"slices"
	"strings"

	"pathdb/internal/ordpath"
	"pathdb/internal/storage"
	"pathdb/internal/xmltree"
	"pathdb/internal/xpath"
)

// Levels reads a whole location path from levels instead of navigating it,
// from the volume roots: a top-down semi-join over the levels of the steps
// above the last — a node is kept when it has a partner in the previous
// step's set under its own step's axis, the mirror of the bottom-up merge
// XJoin builds its filter sets with — and then the last step's level, merged
// against that set. Each merge is O(|previous| + |D_j|) and charged a set
// operation per level entry it passes.
//
// Two plans read this way. Under a join plan (levelRead) the last merge is
// the candidate set of the last step's XJoin: a function of levels alone,
// materialised and cached in the derived cache under key. A predicate-free
// path (flatRead) streams its last level through the merge instead (key ""):
// its candidates are its answer, so nothing is cached or materialised per
// entry, and a limited or cancelled read stops where it is.
//
// Candidates come out in document order as right-complete instances of the
// last step whose NR and Ord are the level's IDs and keys, so a plan over
// resident levels navigates nothing.
type Levels struct {
	es  *EvalState
	key string

	started bool
	ords    []ordpath.Key // the last step's level, or the cached candidate set
	ids     []storage.NodeID
	all     bool // every entry of ords is a candidate; otherwise the merge picks
	pos     int
	scratch *levelScratch
}

// candSet is the output of a join plan's level read: keys and node ids in
// document order. A cached one is shared and read-only.
type candSet struct {
	ords []ordpath.Key
	ids  []storage.NodeID
}

// levelScratch is a level read's working memory, pooled in the arena: the
// prefix sets, two key buffers taken in turn, and the merge with its stack.
type levelScratch struct {
	cur, spare []ordpath.Key
	merge      keepMerge
}

// levelSteps reports whether a plan of path from contexts has the shape a
// level read joins — contexts at the volume roots, every step a child,
// descendant or descendant-or-self step with a name test — and whether one
// of its steps is a descendant(-or-self) step.
func levelSteps(st *storage.Store, path []xpath.Step, contexts []storage.NodeID) (ok, desc bool) {
	if len(path) == 0 || !slices.Equal(contexts, st.Roots()) {
		return false, false
	}
	for _, s := range path {
		switch s.Axis {
		case xpath.Child:
		case xpath.Descendant, xpath.DescendantOrSelf:
			desc = true
		default:
			return false, false
		}
		if s.Test.Kind != xpath.KindElement || s.Test.AnyName {
			return false, false
		}
	}
	return true, desc
}

// levelRead returns the derived-cache key of the candidate set a join plan
// of path from contexts reads from levels, or "" when the plan navigates:
// the path has the level shape and its last step is the only one with
// predicates.
func levelRead(st *storage.Store, path []xpath.Step, contexts []storage.NodeID) string {
	if ok, _ := levelSteps(st, path, contexts); !ok {
		return ""
	}
	for i, s := range path {
		if (len(s.Predicates) > 0) != (i == len(path)-1) {
			return ""
		}
	}
	return stepsKey("levels:", st.Dict(), path)
}

// flatRead reports whether a predicate-free plan of path from contexts that
// the chooser sent to Simple reads the path from levels: the path has the
// level shape with a descendant step — a child-only path reaches its few
// nodes cheaper by navigation than by merging whole levels — and the view's
// derived generation has room for every level of the path, without which
// each read would build them again.
func flatRead(st *storage.Store, path []xpath.Step, contexts []storage.NodeID) bool {
	ok, desc := levelSteps(st, path, contexts)
	if !ok || !desc || slices.ContainsFunc(path, func(s xpath.Step) bool { return len(s.Predicates) > 0 }) {
		return false
	}
	dcache, epoch, cacheable := st.Derived()
	return cacheable && dcache.Room(epoch, len(path))
}

// ReadsLevels reports whether a plan of path from contexts reads the path
// from levels (Levels) rather than navigating it: a plan whose predicates
// join (pe) and whose path passes levelRead, whatever its strategy, or a
// predicate-free path passing flatRead that the chooser sent to Simple on a
// resident pool (simple). A forced strategy passes simple false and
// navigates. plan.Chooser reports the answer as Choice.LevelRead, which
// carries it to the plan as PlanOptions.LevelRead.
func ReadsLevels(st *storage.Store, path []xpath.Step, contexts []storage.NodeID, pe PredEval, simple bool) bool {
	return pe == PredJoin && levelRead(st, path, contexts) != "" || simple && flatRead(st, path, contexts)
}

// predPlan settles how a plan of path from contexts evaluates its
// predicates: it returns the evaluator — pe, or AutoPredEval's rule for
// PredAuto — and, when that joins and the path is read from levels, the
// candidate set's key (levelRead; "" otherwise). BuildPlan and
// BuildMultiPlan both decide here.
func predPlan(st *storage.Store, path []xpath.Step, contexts []storage.NodeID, pe PredEval) (PredEval, string) {
	key := levelRead(st, path, contexts)
	if pe == PredAuto {
		pe = PredNested
		if dcache, epoch, ok := st.Derived(); ok {
			if joinable, missing := planNeeds(st, path, key); joinable && dcache.Room(epoch, len(missing)) {
				pe = PredJoin
			}
		}
	}
	if pe != PredJoin {
		key = ""
	}
	return pe, key
}

// levelSource builds a join plan's level read: the Levels operator, its
// candidate set cached under key, under the last step's XJoin.
func levelSource(es *EvalState, key string) Operator {
	return NewXJoin(es, &Levels{es: es, key: key}, len(es.Path))
}

// Open resets the read; the levels are read on the first Next.
func (l *Levels) Open() { l.started, l.pos = false, 0 }

// Close returns the read's scratch to the arena.
func (l *Levels) Close() {
	if l.scratch != nil {
		l.es.Arena.putLevelScratch(l.scratch)
		l.scratch = nil
	}
	l.ords, l.ids = nil, nil
}

// Next emits the next candidate.
func (l *Levels) Next() (Instance, bool) {
	if !l.started {
		l.start()
	}
	if l.es.Cancelled() {
		return Instance{}, false
	}
	k := l.pos
	if !l.all {
		k = l.nextKept()
	}
	if k >= len(l.ords) {
		l.pos = k
		return Instance{}, false
	}
	l.pos = k + 1
	id := l.ids[k]
	l.es.chargeTuple()
	return Instance{NL: id, SR: len(l.es.Path), NR: id, Ord: l.ords[k]}, true
}

// nextKept advances the merge from pos to the next entry of the last level
// it keeps (len(ords) when none is left), charging a set operation for
// every entry it passes.
func (l *Levels) nextKept() int {
	m := &l.scratch.merge
	k := l.pos
	for k < len(l.ords) {
		kept := m.keeps(l.ords[k])
		if k++; kept {
			l.es.chargeSetOp(k - l.pos)
			return k - 1
		}
		if m.done() {
			break
		}
	}
	l.es.chargeSetOp(k - l.pos)
	return len(l.ords)
}

// start reads the path's levels: a join plan's candidate set from the
// derived cache when it is resident there, else the steps top-down from the
// roots, leaving the merge positioned before the last step's level.
func (l *Levels) start() {
	es := l.es
	l.started, l.all, l.ords, l.ids = true, false, nil, nil
	dcache, epoch, cacheable := es.Store.AdvanceDerived(es.Cancelled)
	if cacheable = cacheable && l.key != ""; cacheable {
		if v, ok := dcache.Get(epoch, l.key); ok {
			cs := v.(*candSet)
			l.ords, l.ids, l.all = cs.ords, cs.ids, true
			return
		}
	}
	if l.scratch == nil {
		l.scratch = es.Arena.takeLevelScratch()
	}
	sc := l.scratch
	sc.cur = sc.cur[:0]
	for _, r := range es.Store.Roots() {
		sc.cur = append(sc.cur, es.Store.Swizzle(r).OrdKey())
	}
	last := len(es.Path) - 1
	for _, s := range es.Path[:last] {
		if len(sc.cur) == 0 {
			break
		}
		lv := levelOf(es, s, false)
		sc.merge.reset(sc.cur, relOf(s.Axis))
		sc.spare = sc.spare[:0]
		for _, d := range lv.Ords {
			if sc.merge.keeps(d) {
				sc.spare = append(sc.spare, d)
			}
		}
		es.chargeSetOp(len(lv.Ords))
		sc.cur, sc.spare = sc.spare, sc.cur
	}
	if len(sc.cur) > 0 {
		lv := levelOf(es, es.Path[last], false)
		sc.merge.reset(sc.cur, relOf(es.Path[last].Axis))
		l.ords, l.ids = lv.Ords, lv.IDs
	}
	if l.key == "" {
		return // streamed through the merge by Next
	}
	cs := &candSet{}
	for k, d := range l.ords {
		if sc.merge.keeps(d) {
			cs.ords = append(cs.ords, d)
			cs.ids = append(cs.ids, l.ids[k])
		}
	}
	es.chargeSetOp(len(l.ords))
	if cacheable && !es.Cancelled() { // a cancelled read is partial
		dcache.Put(epoch, l.key, cs)
	}
	l.ords, l.ids, l.all = cs.ords, cs.ids, true
}

// keepMerge is semiJoinMark's mirror as a stream: reset with anc (doc-
// ordered context keys) and rel (relChild, relDesc or relDescOrSelf), keeps
// is called on a level's keys in document order and reports, for each, that
// it has at least one anc partner under rel. The explicit stack holds the
// anc entries on the key's ancestor-or-self chain; the deepest proper
// ancestor among them is the only one that can be its parent.
type keepMerge struct {
	anc   []ordpath.Key
	rel   relKind
	stack []int
	ai    int
}

func (m *keepMerge) reset(anc []ordpath.Key, rel relKind) {
	m.anc, m.rel, m.stack, m.ai = anc, rel, m.stack[:0], 0
}

func (m *keepMerge) keeps(d ordpath.Key) bool {
	for m.ai < len(m.anc) && ordpath.Compare(m.anc[m.ai], d) <= 0 {
		for len(m.stack) > 0 && !ancestorOrSelf(m.anc[m.stack[len(m.stack)-1]], m.anc[m.ai]) {
			m.stack = m.stack[:len(m.stack)-1]
		}
		m.stack = append(m.stack, m.ai)
		m.ai++
	}
	for len(m.stack) > 0 && !ancestorOrSelf(m.anc[m.stack[len(m.stack)-1]], d) {
		m.stack = m.stack[:len(m.stack)-1]
	}
	t := len(m.stack) - 1
	if m.rel == relDescOrSelf {
		return t >= 0
	}
	if t >= 0 && ordpath.Compare(m.anc[m.stack[t]], d) == 0 {
		t-- // proper ancestors only
	}
	return t >= 0 && (m.rel == relDesc || m.anc[m.stack[t]].Level() == d.Level()-1)
}

// done reports that no later key can be kept: every context was passed and
// none of them is on the last key's ancestor-or-self chain.
func (m *keepMerge) done() bool { return m.ai == len(m.anc) && len(m.stack) == 0 }

// levelNeeds returns the derived-cache keys a level read of path lacks:
// the candidate set (named key) and, unless that is resident, the levels
// of the path's steps. A plan that navigates (key "") lacks none.
func levelNeeds(st *storage.Store, path []xpath.Step, key string) []string {
	if key == "" {
		return nil
	}
	dcache, epoch, ok := st.Derived()
	if ok && dcache.Contains(epoch, key) {
		return nil
	}
	out := []string{key}
	for _, s := range path {
		if lk := LevelKey(st.Dict(), s); !ok || !dcache.Contains(epoch, lk) {
			out = append(out, lk)
		}
	}
	return out
}

// stepsKey names a derived-cache entry computed from steps alone: kind
// followed by the canonical rendition of the steps' axes and node tests.
func stepsKey(kind string, dict *xmltree.Dictionary, steps []xpath.Step) string {
	var b strings.Builder
	b.Grow(64)
	b.WriteString(kind)
	for _, s := range steps {
		b.WriteByte('/')
		b.WriteString(s.Axis.String())
		b.WriteString("::")
		b.WriteString(s.Test.Render(dict))
	}
	return b.String()
}

// describe renders the read as the steps it reads, e.g.
// Levels(child::site/descendant::item).
func (l *Levels) describe(dict *xmltree.Dictionary) string {
	return fmt.Sprintf("Levels(%s)", strings.TrimPrefix(stepsKey("", dict, l.es.Path), "/"))
}
