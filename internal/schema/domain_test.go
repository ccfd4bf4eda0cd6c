package schema

import (
	"fmt"
	"testing"
	"unsafe"
)

// TestDomainProbeAllocs pins the probe every stored constant passes
// through as allocation-free: Contains and Canonical on an IntDomain
// (computed), a 20-value NewDomain (hashed) and a 3-value one (scanned),
// hits and misses alike; a hit hands out the Values entry itself.
func TestDomainProbeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	vals := make([]string, 20)
	for i := range vals {
		vals[i] = fmt.Sprintf("a%d", i+1)
	}
	for _, tc := range []struct {
		d         *Domain
		hit, miss string
	}{
		{IntDomain("key", "k", 150000), "k149999", "k0150000"},
		{MustDomain("alpha", vals...), "a17", "a21"},
		{MustDomain("beta", "b1", "b2", "b3"), "b3", "b4"},
	} {
		hit := string([]byte(tc.hit)) // bytes of its own, as a decoded cell's
		got, ok := tc.d.Canonical(hit)
		if !ok || got != tc.hit || unsafe.StringData(got) != unsafe.StringData(tc.d.Values[tc.d.index(hit)]) {
			t.Fatalf("%s.Canonical(%q) = %q, %v: want the domain's own entry", tc.d.Name, hit, got, ok)
		}
		if _, ok := tc.d.Canonical(tc.miss); ok || tc.d.Contains(tc.miss) {
			t.Fatalf("%s holds %q", tc.d.Name, tc.miss)
		}
		if n := testing.AllocsPerRun(100, func() {
			tc.d.Contains(hit)
			tc.d.Contains(tc.miss)
			tc.d.Canonical(hit)
			tc.d.Canonical(tc.miss)
		}); n != 0 {
			t.Errorf("%s: Contains and Canonical allocate %v per hit and miss, want 0", tc.d.Name, n)
		}
	}
}

// FuzzIntDomain holds an IntDomain's computed membership to the lookup a
// NewDomain builds over the same Values: for any prefix, size and
// candidate, Contains and Canonical agree with it, a hit is the Values
// entry equal to the candidate, and only a prefix the cell notation cannot
// write is refused.
func FuzzIntDomain(f *testing.F) {
	f.Add("k", uint16(150), "k007")                  // leading zeros
	f.Add("k", uint16(150), "k0")                    // k0
	f.Add("k", uint16(150), "k150")                  // the last value
	f.Add("k", uint16(150), "k151")                  // one past it
	f.Add("k", uint16(150), "k18446744073709551617") // 20 digits: past uint64
	f.Add("k", uint16(999), "k9999999999999999999")  // 19 digits
	f.Add("a1", uint16(20), "a11")                   // a prefix ending in digits
	f.Add("a1", uint16(20), "a1")                    // the prefix alone
	f.Add("", uint16(20), "")                        // the empty candidate, no prefix
	f.Add("v", uint16(20), "")                       // the empty candidate
	f.Add("", uint16(20), "7")                       // no prefix
	f.Add("é", uint16(20), "é7")                     // non-ASCII prefix
	f.Add("k", uint16(20), "k1\xff")                 // non-ASCII tail
	f.Add("k", uint16(20), "k١")                     // a non-ASCII digit
	f.Add("-", uint16(3), "-1")                      // a refused prefix
	f.Fuzz(func(t *testing.T, prefix string, size uint16, c string) {
		n := int(size)%2000 + 1
		d, err := NewIntDomain("d", prefix, n)
		if _, werr := NewDomain("w", prefix+"1"); (err == nil) != (werr == nil) {
			t.Fatalf("NewIntDomain(%q, %d): %v, but NewDomain(%q): %v", prefix, n, err, prefix+"1", werr)
		}
		if err != nil {
			return
		}
		ref := MustDomain("ref", d.Values...)
		got, ok := d.Canonical(c)
		want, wok := ref.Canonical(c)
		if ok != wok || got != want || d.Contains(c) != ok {
			t.Fatalf("prefix %q, n %d, candidate %q: computed (%q, %v), NewDomain's (%q, %v)", prefix, n, c, got, ok, want, wok)
		}
		if ok && (got != c || unsafe.StringData(got) != unsafe.StringData(d.Values[d.index(c)])) {
			t.Fatalf("prefix %q, n %d: Canonical(%q) = %q is not the domain's entry", prefix, n, c, got)
		}
	})
}
