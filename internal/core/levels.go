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

// Levels reads a whole location path from levels instead of navigating it.
// Its output is the last step's level after a top-down semi-join over the
// levels of the steps above it, from the volume roots: a node is kept when
// it has a partner in the previous step's set under its own step's axis —
// the mirror of the bottom-up merge XJoin builds its filter sets with. Each
// merge is O(|previous| + |D_j|) and charged a set operation per level
// entry. The candidate set is a function of levels alone and is cached in
// the derived cache.
//
// Candidates come out in document order as right-complete instances of the
// last step whose NR and Ord are the level's IDs and keys, so a plan over
// resident levels touches no page.
type Levels struct {
	es    *EvalState
	cands *candSet
	pos   int
}

// candSet is the output of a level read: keys and node ids in document
// order. A cached one is shared and read-only.
type candSet struct {
	ords []ordpath.Key
	ids  []storage.NodeID
}

// levelRead returns the derived-cache key of the candidate set a join plan
// of path from contexts reads from levels, or "" when the plan navigates.
// The level read applies when the contexts are the volume roots, the last
// step is the only one with predicates, and every step is a child,
// descendant or descendant-or-self step with a name test.
func levelRead(st *storage.Store, path []xpath.Step, contexts []storage.NodeID) string {
	if len(path) == 0 || !slices.Equal(contexts, st.Roots()) {
		return ""
	}
	for i, s := range path {
		if (len(s.Predicates) > 0) != (i == len(path)-1) {
			return ""
		}
		switch s.Axis {
		case xpath.Child, xpath.Descendant, xpath.DescendantOrSelf:
		default:
			return ""
		}
		if s.Test.Kind != xpath.KindElement || s.Test.AnyName {
			return ""
		}
	}
	return stepsKey("levels:", st.Dict(), path)
}

// ReadsLevels reports whether a join plan of path from contexts reads the
// path from levels (Levels) rather than navigating it.
func ReadsLevels(st *storage.Store, path []xpath.Step, contexts []storage.NodeID) bool {
	return levelRead(st, path, contexts) != ""
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

// levelSource builds the level read of the plan's path: the Levels
// operator under the last step's XJoin.
func levelSource(es *EvalState) Operator {
	return NewXJoin(es, &Levels{es: es}, len(es.Path))
}

// Open resets the read; the candidates are read on the first Next.
func (l *Levels) Open() { l.cands, l.pos = nil, 0 }

// Close does nothing: Levels holds no input.
func (l *Levels) Close() {}

// Next emits the next candidate.
func (l *Levels) Next() (Instance, bool) {
	if l.cands == nil {
		l.cands = l.candidates()
	}
	if l.pos >= len(l.cands.ids) || l.es.Cancelled() {
		return Instance{}, false
	}
	id := l.cands.ids[l.pos]
	out := Instance{NL: id, SR: len(l.es.Path), NR: id, Ord: l.cands.ords[l.pos]}
	l.pos++
	l.es.chargeTuple()
	return out, true
}

// candidates reads the path's steps from levels, from the roots, through
// the derived cache.
func (l *Levels) candidates() *candSet {
	es := l.es
	dcache, epoch, cacheable := es.Store.AdvanceDerived(es.Cancelled)
	if cacheable {
		if v, ok := dcache.Get(epoch, es.levelsKey); ok {
			return v.(*candSet)
		}
	}
	roots := es.Store.Roots()
	ctx := make([]ordpath.Key, len(roots))
	for i, r := range roots {
		ctx[i] = es.Store.Swizzle(r).OrdKey()
	}
	cs := semiJoinDown(es, ctx, es.Path)
	if cacheable && !es.Cancelled() { // a cancelled read is partial
		dcache.Put(epoch, es.levelsKey, cs)
	}
	return cs
}

// semiJoinDown reads steps top-down from the document-ordered context keys:
// each step keeps the entries of its level with a partner in the previous
// step's set under its axis.
func semiJoinDown(es *EvalState, ctx []ordpath.Key, steps []xpath.Step) *candSet {
	cs := &candSet{ords: ctx}
	for _, s := range steps {
		if len(cs.ords) == 0 {
			return &candSet{}
		}
		lv := levelOf(es, s, false)
		keep := make([]bool, len(lv.Ords))
		semiJoinKeep(cs.ords, lv.Ords, relOf(s.Axis), keep)
		es.chargeSetOp(len(lv.Ords))
		next := &candSet{}
		for k, ok := range keep {
			if ok {
				next.ords = append(next.ords, lv.Ords[k])
				next.ids = append(next.ids, lv.IDs[k])
			}
		}
		cs = next
	}
	return cs
}

// semiJoinKeep is semiJoinMark's mirror: it merges anc (doc-ordered
// context keys) with desc (doc-ordered level keys) and sets keep[k] for
// every desc[k] with at least one anc partner under rel (relChild, relDesc
// or relDescOrSelf). The explicit stack holds the anc entries on desc[k]'s
// ancestor-or-self chain; the deepest proper ancestor among them is the
// only one that can be its parent.
func semiJoinKeep(anc, desc []ordpath.Key, rel relKind, keep []bool) {
	var stack []int
	ai := 0
	for k, d := range desc {
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
		t := len(stack) - 1
		if rel == relDescOrSelf {
			keep[k] = t >= 0
			continue
		}
		if t >= 0 && ordpath.Compare(anc[stack[t]], d) == 0 {
			t-- // proper ancestors only
		}
		keep[k] = t >= 0 && (rel == relDesc || anc[stack[t]].Level() == d.Level()-1)
	}
}

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
