// cache.go implements the level-scoped partition cache the lattice search
// leans on: partitions for an attribute set are built once, level k sets
// are derived by intersecting a cached level k−1 parent with a pinned
// level-1 refiner, and levels the search has moved past are evicted.
package partition

import (
	"sync"

	"fdnull/internal/relation"
	"fdnull/internal/schema"
	"fdnull/internal/testfds"
)

// Cache builds and caches partitions of one relation under one
// convention. Get is safe for concurrent callers (the discovery engine's
// worker pool hits it from every worker); each distinct attribute set is
// computed exactly once via a per-entry sync.Once, so two workers asking
// for the same set share one product computation.
//
// Staleness: the cache records the relation's mutation version
// (Relation.Version) and drops every entry when the version moves, so a
// Get after a mutation always describes the current tuples. As with the
// relation's own index cache, mutating the relation *while* Gets are in
// flight is a caller error.
type Cache struct {
	r    *relation.Relation
	conv testfds.Convention

	mu      sync.Mutex
	version uint64
	entries map[schema.AttrSet]*entry
}

type entry struct {
	once sync.Once
	p    *Partition
}

// NewCache creates an empty cache over r under conv.
func NewCache(r *relation.Relation, conv testfds.Convention) *Cache {
	return &Cache{r: r, conv: conv, version: r.Version(), entries: map[schema.AttrSet]*entry{}}
}

// Get returns the partition on set, building it on first use. A level-1
// strong partition is read off the relation's X-partition index on the
// set (the one CheckAll and the query planner keep); a weak one, where
// null marks are key symbols, is built by a column scan. Larger sets are
// the product of the cached partition on set minus its maximum attribute
// (the lattice parent the level-wise search just tested) and the pinned
// level-1 partition of that attribute.
func (c *Cache) Get(set schema.AttrSet) *Partition {
	e := c.entry(set)
	e.once.Do(func() {
		switch attrs := set.Attrs(); {
		case len(attrs) > 1:
			max := attrs[len(attrs)-1]
			e.p = c.Get(set.Remove(max)).Intersect(c.Get(schema.NewAttrSet(max)))
		case c.conv == testfds.Strong:
			e.p = fromIndex(c.r.IndexOn(set), c.r.Len())
		default:
			e.p = Build(c.r, set, c.conv)
		}
	})
	return e.p
}

func (c *Cache) entry(set schema.AttrSet) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v := c.r.Version(); v != c.version {
		c.version = v
		c.entries = map[schema.AttrSet]*entry{}
	}
	e, ok := c.entries[set]
	if !ok {
		e = &entry{}
		c.entries[set] = e
	}
	return e
}

// EvictBelow drops every cached partition of level 2 … level−1, keeping
// the pinned level-1 column partitions and everything at or above level.
// The level-wise search calls it after finishing level k with
// EvictBelow(k): products for level k+1 only ever need level-k parents
// and level-1 refiners. Callers must not race EvictBelow with Get.
func (c *Cache) EvictBelow(level int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for set := range c.entries {
		if l := set.Len(); l > 1 && l < level {
			delete(c.entries, set)
		}
	}
}

// Size returns the number of cached partitions (a test hook for the
// eviction policy).
func (c *Cache) Size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
