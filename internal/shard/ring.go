// Package shard scales the single-volume engine out: N fully independent
// pathdb volumes (each with its own simulated disk, buffer pool,
// engine, transaction manager and plan chooser), a consistent-hash ring
// assigning entity collections to volumes deterministically, and a
// scatter-gather coordinator that fans queries across the volumes and
// merges counts and nodes in document order (Cluster). The split model —
// replicated container spine, partitioned entity collections — lives in
// the pathdb facade (ShardSet); this package routes over it.
package shard

import (
	"fmt"
	"sort"
	"sync"
)

// DefaultReplicas is the number of virtual nodes each shard contributes to
// the ring. More vnodes smooth the key distribution (the skew bound in the
// tests relies on it) at a small fixed setup cost.
const DefaultReplicas = 256

type ringPoint struct {
	hash  uint64
	shard int
}

// Ring is a consistent-hash ring over n shards. Placement is a pure
// function of (n, replicas, key) — two processes building a ring with the
// same parameters agree on every key, which is what makes placement stable
// across restarts without any persisted routing table.
//
// Shards can be marked degraded; Place keeps returning the true owner
// (reads still try the shard and let the fault plane answer), while
// PlaceWrite walks clockwise past degraded shards so new writes land on
// healthy ones without disturbing the routing of any other key.
type Ring struct {
	n        int
	replicas int
	points   []ringPoint

	mu       sync.RWMutex
	degraded []bool
}

// NewRing builds a ring over n shards with the given virtual-node count
// per shard (DefaultReplicas when replicas <= 0).
func NewRing(n, replicas int) *Ring {
	if n < 1 {
		panic(fmt.Sprintf("shard: ring needs n >= 1, got %d", n))
	}
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	r := &Ring{
		n:        n,
		replicas: replicas,
		points:   make([]ringPoint, 0, n*replicas),
		degraded: make([]bool, n),
	}
	for s := 0; s < n; s++ {
		for v := 0; v < replicas; v++ {
			h := hash64(fmt.Sprintf("shard-%d/vnode-%d", s, v))
			r.points = append(r.points, ringPoint{hash: h, shard: s})
		}
	}
	// Deterministic order even under (vanishingly unlikely) hash ties.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Shards returns the shard count the ring was built for.
func (r *Ring) Shards() int { return r.n }

// Place returns the owning shard for key: the shard of the first ring
// point at or clockwise after the key's hash. Degradation does not change
// the answer — ownership is stable.
func (r *Ring) Place(key string) int {
	return r.points[r.successor(hash64(key))].shard
}

// PlaceWrite returns the first healthy shard at or clockwise after the
// key's point, so writes route around degraded shards while every other
// key keeps its owner. With all shards degraded it falls back to the true
// owner.
func (r *Ring) PlaceWrite(key string) int {
	i := r.successor(hash64(key))
	r.mu.RLock()
	defer r.mu.RUnlock()
	for probed := 0; probed < len(r.points); probed++ {
		p := r.points[(i+probed)%len(r.points)]
		if !r.degraded[p.shard] {
			return p.shard
		}
	}
	return r.points[i].shard
}

// successor returns the index of the first point with hash >= h, wrapping
// to 0 past the end.
func (r *Ring) successor(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// SetDegraded marks shard s degraded (or healthy again with v=false).
func (r *Ring) SetDegraded(s int, v bool) {
	r.mu.Lock()
	r.degraded[s] = v
	r.mu.Unlock()
}

// IsDegraded reports whether shard s is currently marked degraded.
func (r *Ring) IsDegraded(s int) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.degraded[s]
}

// Healthy returns the shards not currently marked degraded, ascending.
func (r *Ring) Healthy() []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]int, 0, r.n)
	for s := 0; s < r.n; s++ {
		if !r.degraded[s] {
			out = append(out, s)
		}
	}
	return out
}

// hash64 is FNV-64a with a splitmix64 finisher. FNV alone clusters on the
// short, prefix-similar placement keys the splitter produces; the finisher
// avalanches the low bits so vnode points and keys spread uniformly.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
