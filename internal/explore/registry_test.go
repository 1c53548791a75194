package explore

import "testing"

// TestSystemRegistryRoundTrip pins the registry against drift: every name
// SystemNames advertises must resolve through NewSystem, and the resolved
// system must report exactly that name — so CLI help, the mutant zoo, and
// artifact replay (which rebuilds systems by recorded name) can never
// disagree about what exists. Every system is sized with the f it is given,
// which must leave a correct process.
func TestSystemRegistryRoundTrip(t *testing.T) {
	names := SystemNames()
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if seen[name] {
			t.Errorf("SystemNames lists %q twice", name)
		}
		seen[name] = true
		sys, err := NewSystem(name, 3, 1)
		if err != nil {
			t.Errorf("NewSystem(%q) failed: %v", name, err)
			continue
		}
		if sys.Name() != name {
			t.Errorf("NewSystem(%q).Name() = %q", name, sys.Name())
		}
		if sys.N() != 3 || sys.MaxFaults() != 1 {
			t.Errorf("NewSystem(%q, 3, 1) has n=%d f=%d", name, sys.N(), sys.MaxFaults())
		}
		for _, f := range []int{0, 3} {
			if _, err := NewSystem(name, 3, f); err == nil {
				t.Errorf("NewSystem(%q, 3, %d) accepted f outside [1,2]", name, f)
			}
		}
	}
	if _, err := NewSystem("no-such-system", 2, 1); err == nil {
		t.Error("NewSystem accepted an unknown system name")
	}
}

// TestMutantZooNamesRegistered asserts the other direction of the pairing:
// every zoo entry names a registered system and a library pattern, and its
// recorded size instantiates.
func TestMutantZooNamesRegistered(t *testing.T) {
	registered := make(map[string]bool)
	for _, name := range SystemNames() {
		registered[name] = true
	}
	for _, m := range MutantZoo() {
		if !registered[m.System] {
			t.Errorf("zoo entry %q is not in SystemNames", m.System)
		}
		if _, err := NewSystem(m.System, m.N, m.F); err != nil {
			t.Errorf("zoo entry %q does not instantiate at n=%d f=%d: %v", m.System, m.N, m.F, err)
		}
		if _, ok := PatternByName(m.Pattern); !ok {
			t.Errorf("zoo entry %q documents unknown pattern %q", m.System, m.Pattern)
		}
		if _, err := zooEntry(m.System); err != nil {
			t.Errorf("zooEntry(%q) failed: %v", m.System, err)
		}
	}
	if _, err := zooEntry("fig1"); err == nil {
		t.Error("zooEntry resolved the unmutated fig1 system")
	}
}
