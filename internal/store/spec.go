package store

import (
	"fmt"

	"salient/internal/cache"
	"salient/internal/dataset"
	"salient/internal/half"
	"salient/internal/partition"
)

// Spec selects a store composition from flag-style inputs, so command-line
// front ends (cmd/salient) can describe a store declaratively.
type Spec struct {
	// Kind is "flat", "sharded", "cached" (cache over the flat layout), or
	// "sharded+cached" (cache over a sharded layout).
	Kind string
	// Parts is the shard count for sharded layouts. Default 4.
	Parts int
	// Placement picks the sharding assignment: "ldg" (default) or "random".
	Placement string
	// CacheRows is the cached-store residency capacity. Default NumNodes/5.
	CacheRows int
	// CachePolicy selects the replacement policy for cached stores.
	CachePolicy cache.Policy
	// Seed keys random placement.
	Seed uint64
	// Precision is the storage precision of the feature rows (zero value
	// fp16, the seed layout).
	Precision half.Precision
}

// ValidKind reports whether k names a composition Build accepts (empty
// selects flat). Front ends use it to reject typos before loading data.
func ValidKind(k string) bool {
	switch k {
	case "", "flat", "sharded", "cached", "sharded+cached":
		return true
	}
	return false
}

// ValidPlacement reports whether p names a sharding placement Build accepts
// (empty selects LDG).
func ValidPlacement(p string) bool {
	switch p {
	case "", "ldg", "random":
		return true
	}
	return false
}

// Build composes the store spec over ds.
func Build(ds *dataset.Dataset, spec Spec) (FeatureStore, error) {
	if !spec.Precision.Valid() {
		return nil, fmt.Errorf("store: invalid precision %d", spec.Precision)
	}
	sharded := func() (FeatureStore, error) {
		if !ValidPlacement(spec.Placement) {
			return nil, fmt.Errorf("store: unknown placement %q (want ldg or random)", spec.Placement)
		}
		parts := spec.Parts
		if parts == 0 {
			parts = 4
		}
		var a *partition.Assignment
		var err error
		if spec.Placement == "random" {
			a, err = partition.Random(ds.G, parts, spec.Seed)
		} else {
			a, err = partition.LDG(ds.G, parts)
		}
		if err != nil {
			return nil, err
		}
		return NewSharded(ds, a, spec.Precision)
	}
	var base FeatureStore
	var err error
	switch spec.Kind {
	case "", "flat":
		return NewFlatPrec(ds, spec.Precision), nil
	case "sharded":
		return sharded()
	case "cached":
		base = NewFlatPrec(ds, spec.Precision)
	case "sharded+cached":
		if base, err = sharded(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("store: unknown store kind %q (want flat, sharded, cached, or sharded+cached)", spec.Kind)
	}
	rows := spec.CacheRows
	if rows == 0 {
		rows = base.NumNodes() / 5
	}
	return NewCached(base, ds.G, CacheOptions{Rows: rows, Policy: spec.CachePolicy})
}
