package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// nthByClearing is Set.Nth's definition: clear the i lowest members and
// return the lowest one left.
func nthByClearing(s Set, i int) PID {
	for ; i > 0; i-- {
		s &= s - 1
	}
	return lowest(s)
}

// TestSetNthMatchesDefinition pins Nth to the bit-clearing definition on
// every one-byte set and every valid index, on 10,000 seeded random 64-bit
// sets, and requires a panic for every index past the last member.
func TestSetNthMatchesDefinition(t *testing.T) {
	check := func(s Set) {
		for i := 0; i < s.Len(); i++ {
			if got, want := s.Nth(i), nthByClearing(s, i); got != want {
				t.Fatalf("%v.Nth(%d) = %v, want %v", s, i, got, want)
			}
		}
		for _, i := range []int{s.Len(), s.Len() + 1, MaxProcs} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%v.Nth(%d) did not panic", s, i)
					}
				}()
				s.Nth(i)
			}()
		}
	}
	for b := 0; b < 256; b++ {
		check(Set(b))
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 10_000; k++ {
		check(Set(rng.Uint64()))
	}
	check(^Set(0))
}

// TestRandomPicksPinned pins NewRandom's pick sequence: for seeds 1 and 42,
// the sha256 of the first 10,000 picks over enabled sets of sizes 1–8
// (size i%8+1 at step i, members spread over all 64 PIDs) must not change.
// Every recorded random run in the repository replays these picks.
func TestRandomPicksPinned(t *testing.T) {
	want := map[int64]string{
		1:  "bcb983909020ffe0512d5d6370da4769f8d9922f5aa8919b28c93dd67e32c6a4",
		42: "b51ae37323240a955ce641349a3f953c8d801ea416574d595202d9562b093315",
	}
	for _, seed := range []int64{1, 42} {
		s := NewRandom(seed)
		h := sha256.New()
		for i := 0; i < 10_000; i++ {
			var enabled Set
			for j := 0; j <= i%8; j++ {
				enabled = enabled.Add(PID((i + 7*j) % MaxProcs))
			}
			p := s.Next(Time(i+1), enabled)
			if !enabled.Has(p) {
				t.Fatalf("seed %d step %d: picked %v outside %v", seed, i, p, enabled)
			}
			h.Write([]byte{byte(p)})
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[seed] {
			t.Errorf("seed %d: picks digest %s, want %s", seed, got, want[seed])
		}
	}
}
