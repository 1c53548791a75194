package main

import "testing"

func TestParseCrashes(t *testing.T) {
	tests := []struct {
		in      string
		want    map[int]int64
		wantErr bool
	}{
		{"", nil, false},
		{"0:10", map[int]int64{0: 10}, false},
		{"0:10,3:45", map[int]int64{0: 10, 3: 45}, false},
		{" 1 : 5 ", map[int]int64{1: 5}, false},
		{"0", nil, true},
		{"x:1", nil, true},
		{"0:y", nil, true},
		{"-1:5", nil, true},
		{"0:-5", nil, true},
		{"0:1,0:2", nil, true},
	}
	for _, tt := range tests {
		got, err := parseCrashes(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("parseCrashes(%q) err = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err != nil {
			continue
		}
		if len(got) != len(tt.want) {
			t.Errorf("parseCrashes(%q) = %v, want %v", tt.in, got, tt.want)
			continue
		}
		for k, v := range tt.want {
			if got[k] != v {
				t.Errorf("parseCrashes(%q)[%d] = %d, want %d", tt.in, k, got[k], v)
			}
		}
	}
}

func TestParseProposals(t *testing.T) {
	got, err := parseProposals("10, 20,30")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("got %v", got)
	}
	if v, err := parseProposals(""); err != nil || v != nil {
		t.Errorf("empty should be nil, got %v/%v", v, err)
	}
	if _, err := parseProposals("1,x"); err == nil {
		t.Error("expected error")
	}
}

func TestDefaultProposals(t *testing.T) {
	got := defaultProposals(3)
	if len(got) != 3 || got[0] != 100 || got[2] != 102 {
		t.Fatalf("got %v", got)
	}
}
