package store

import (
	"fmt"
	"io"

	"fdnull/internal/relio"
)

// Save writes the store — scheme, dependencies, and the current minimally
// incomplete instance — in the relio text format. Null marks are
// persisted, so NEC classes survive the round trip, and the fresh-mark
// allocator watermark rides along as a `nextmark` directive so a
// reloaded store can never recycle a mark the saved one already spent.
func (st *Store) Save(w io.Writer) error {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return relio.Write(w, &relio.File{
		Scheme:   st.scheme,
		FDs:      st.fds,
		Relation: st.rel,
		NextMark: st.rel.NextMark(),
	})
}

// Load reads a store persisted by Save (or any relio file). The loaded
// instance is chased immediately: a file whose rows contradict its own
// dependencies is rejected with an InconsistencyError rather than loaded
// silently.
func Load(r io.Reader) (*Store, error) {
	parsed, err := relio.Parse(r)
	if err != nil {
		return nil, err
	}
	return FromRelation(parsed.Scheme, parsed.FDs, parsed.Relation)
}

// String renders the store compactly for logs.
func (st *Store) String() string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return fmt.Sprintf("store{%s, %d FDs, %d tuples, %d nulls}",
		st.scheme.Name(), len(st.fds), st.rel.Len(), st.rel.NullCount())
}
