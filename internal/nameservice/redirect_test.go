package nameservice

import (
	"errors"
	"testing"
)

// TestFollowOwnerChase proves the happy redirect path: each refusal
// names the next shard, the chain lands on the owner within the hop
// bound, and each hop goes to the shard the refusal named.
func TestFollowOwnerChase(t *testing.T) {
	owners := map[uint32]uint32{0: 2, 2: 1} // 0 -> 2 -> 1 (owner)
	var visited []uint32
	err := FollowOwner(0, func(shard uint32) error {
		visited = append(visited, shard)
		if next, stale := owners[shard]; stale {
			return &NotOwnerError{Topic: "metrics.gps", Shard: next}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("FollowOwner: %v", err)
	}
	if want := []uint32{0, 2, 1}; len(visited) != len(want) || visited[0] != 0 || visited[1] != 2 || visited[2] != 1 {
		t.Fatalf("visited %v, want %v", visited, want)
	}
}

// TestFollowOwnerPassthrough: anything that is not a NotOwner refusal —
// success or a different failure — returns as is after one attempt.
func TestFollowOwnerPassthrough(t *testing.T) {
	boom := errors.New("wire fell over")
	calls := 0
	err := FollowOwner(5, func(shard uint32) error {
		calls++
		if shard != 5 {
			t.Fatalf("op ran on shard %d, want 5", shard)
		}
		return boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("err=%v calls=%d, want the op's own error after 1 call", err, calls)
	}
}

// TestFollowOwnerStorm: a chain still being redirected after
// DefaultMaxRedirects attempts reports ErrRedirectStorm, and keeps the
// final NotOwnerError recoverable so the caller can refetch the map.
func TestFollowOwnerStorm(t *testing.T) {
	calls := uint32(0)
	err := FollowOwner(0, func(shard uint32) error {
		calls++
		return &NotOwnerError{Topic: "t", Shard: shard + 1} // never an owner
	})
	if !errors.Is(err, ErrRedirectStorm) {
		t.Fatalf("err=%v, want ErrRedirectStorm", err)
	}
	var noe *NotOwnerError
	if !errors.As(err, &noe) || noe.Shard != 3 {
		t.Fatalf("final redirect not recoverable from %v (noe=%+v)", err, noe)
	}
	if calls != 3 {
		t.Fatalf("op ran %d times, want exactly DefaultMaxRedirects=3", calls)
	}
}

// TestFollowOwnerDefaultBound: the attempt bound is DefaultMaxRedirects.
func TestFollowOwnerDefaultBound(t *testing.T) {
	calls := 0
	err := FollowOwner(0, func(uint32) error {
		calls++
		return &NotOwnerError{Topic: "t", Shard: 9}
	})
	if !errors.Is(err, ErrRedirectStorm) || calls != DefaultMaxRedirects {
		t.Fatalf("err=%v calls=%d, want storm after DefaultMaxRedirects=%d", err, calls, DefaultMaxRedirects)
	}
}
