package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNormalizeSet(t *testing.T) {
	tests := []struct {
		in, want []int
	}{
		{nil, nil},
		{[]int{3, 1, 2}, []int{1, 2, 3}},
		{[]int{5, 5, 5}, []int{5}},
		{[]int{2, 1, 2, 1}, []int{1, 2}},
		{[]int{0}, []int{0}},
	}
	for _, tt := range tests {
		if got := NormalizeSet(tt.in); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("NormalizeSet(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestSetContains(t *testing.T) {
	s := []int{1, 3, 5}
	for _, v := range s {
		if !SetContains(s, v) {
			t.Errorf("should contain %d", v)
		}
	}
	for _, v := range []int{0, 2, 6} {
		if SetContains(s, v) {
			t.Errorf("should not contain %d", v)
		}
	}
}

func TestSetComplement(t *testing.T) {
	got := SetComplement([]int{1, 3}, 5)
	if !reflect.DeepEqual(got, []int{0, 2, 4}) {
		t.Errorf("complement = %v", got)
	}
	if got := SetComplement(nil, 3); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("complement of empty = %v", got)
	}
	// Out-of-range members are ignored.
	if got := SetComplement([]int{-1, 7}, 2); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("complement with junk = %v", got)
	}
}

func TestSetsEqual(t *testing.T) {
	if !SetsEqual([]int{1, 2}, []int{1, 2}) {
		t.Error("equal sets")
	}
	if SetsEqual([]int{1}, []int{1, 2}) || SetsEqual([]int{1, 3}, []int{1, 2}) {
		t.Error("unequal sets")
	}
}

func TestIsPartition(t *testing.T) {
	tests := []struct {
		a, b []int
		n    int
		want bool
	}{
		{[]int{0, 2}, []int{1, 3}, 4, true},
		{[]int{0, 1, 2, 3}, nil, 4, true},
		{[]int{0}, []int{1}, 3, false},       // misses 2
		{[]int{0, 1}, []int{1, 2}, 3, false}, // overlap
		{[]int{0, 5}, []int{1, 2}, 4, false}, // out of range
	}
	for _, tt := range tests {
		if got := IsPartition(tt.a, tt.b, tt.n); got != tt.want {
			t.Errorf("IsPartition(%v,%v,%d) = %v, want %v", tt.a, tt.b, tt.n, got, tt.want)
		}
	}
}

// Property: complement of complement is the identity on normalized sets.
func TestPropertyComplementInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		var s []int
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				s = append(s, v)
			}
		}
		back := SetComplement(SetComplement(s, n), n)
		if len(s) == 0 {
			return len(back) == 0
		}
		return reflect.DeepEqual(back, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
