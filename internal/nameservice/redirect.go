package nameservice

import (
	"errors"
	"fmt"
)

// NotOwner redirect following. A sharded registry answers an op on a
// name it does not own (a routed row of opTable) with a *NotOwnerError
// carrying the owning shard — the caller's map is stale (a split or
// merge rolled out, or it never fetched one). topic.ShardedDirectory,
// the one caller, runs every routed op through FollowOwner: one bounded
// retry loop that ends a storm in ErrRedirectStorm.

// DefaultMaxRedirects bounds a redirect chain, in attempts. Two hops
// cover every steady-state staleness (one stale map entry, one
// concurrent move); longer chains mean the map is churning under the
// caller — better to surface the storm and let it refetch the map than
// to chase it.
const DefaultMaxRedirects = 3

// ErrRedirectStorm reports a NotOwner redirect chain that exceeded the
// hop bound without reaching an owner. The wrapped cause is the final
// redirect, so errors.As still recovers the last *NotOwnerError (and
// with it, a shard to refetch the map from).
var ErrRedirectStorm = errors.New("nameservice: NotOwner redirect chain exceeded hop bound")

// FollowOwner runs op against shard start, following NotOwner redirects
// to the shard each refusal names, up to DefaultMaxRedirects attempts
// in all. Any result other than a *NotOwnerError — success or a
// different failure — is returned as is. A chain that is still being
// redirected after the last attempt returns ErrRedirectStorm wrapping
// the final redirect.
func FollowOwner(start uint32, op func(shard uint32) error) error {
	shard := start
	for hop := 1; ; hop++ {
		err := op(shard)
		var noe *NotOwnerError
		if !errors.As(err, &noe) {
			return err
		}
		if hop >= DefaultMaxRedirects {
			return fmt.Errorf("%w (%d hops from shard %d): %w", ErrRedirectStorm, hop, start, err)
		}
		shard = noe.Shard
	}
}
