package lint

import "strings"

// Class is a package's determinism classification. Checks key off it:
// wallclock and the rand.New half of globalrand apply only to
// deterministic-compute packages, errenvelope only to the HTTP layers,
// goroutine to everything but the sanctioned concurrency owners.
type Class int

const (
	// ClassOther covers packages with no special contract: the module
	// root facade, internal/par (the determinism substrate itself),
	// internal/prof, internal/lint, and anything new until classified.
	ClassOther Class = iota
	// ClassCompute marks deterministic-compute packages: given the same
	// inputs and seed they must produce byte-identical output at any
	// worker count, so wall clocks and ambient randomness are banned.
	ClassCompute
	// ClassServing marks the serving/infrastructure layer: wall time and
	// scheduling are inherent (latency, TTLs, admission control), but
	// rendered output must still be order-deterministic.
	ClassServing
	// ClassMain marks cmd/ and examples/ binaries.
	ClassMain
)

// String names the class for diagnostics.
func (c Class) String() string {
	switch c {
	case ClassCompute:
		return "deterministic-compute"
	case ClassServing:
		return "serving"
	case ClassMain:
		return "main"
	default:
		return "other"
	}
}

// computePackages lists the module-relative directories under the
// deterministic-compute contract. Subpackages inherit (internal/ml/gp is
// compute because internal/ml is).
var computePackages = []string{
	"internal/env", "internal/campaign", "internal/plan", "internal/dataset",
	"internal/geo", "internal/ml", "internal/mat", "internal/stats",
	"internal/poach", "internal/iware", "internal/game", "internal/lp",
	"internal/milp", "internal/field", "internal/rng",
}

// servingPackages lists the serving-layer directories.
var servingPackages = []string{
	"internal/serve", "internal/gate", "internal/job", "internal/obs",
	"internal/store", "internal/load",
}

// goroutineOwners lists the packages allowed to spawn bare goroutines:
// the deterministic worker pool, the lifecycle managers that own their
// concurrency, and binaries. Everyone else must delegate (par.MapErrCtx).
var goroutineOwners = []string{
	"internal/par", "internal/job", "internal/env", "internal/gate",
	"internal/load",
}

// classify maps a module-relative package directory ("" is the module
// root) to its class. When adding a new package, add it to
// computePackages or servingPackages here if it has either contract;
// unlisted packages default to ClassOther, which still gets the
// maporder and goroutine checks.
func classify(rel string) Class {
	if underAny(rel, []string{"cmd", "examples"}) {
		return ClassMain
	}
	if underAny(rel, computePackages) {
		return ClassCompute
	}
	if underAny(rel, servingPackages) {
		return ClassServing
	}
	return ClassOther
}

// goroutineSanctioned reports whether the package may contain bare go
// statements.
func goroutineSanctioned(rel string) bool {
	return underAny(rel, []string{"cmd", "examples"}) || underAny(rel, goroutineOwners)
}

// envelopeChecked reports whether the package's handlers must use the
// structured error envelope.
func envelopeChecked(rel string) bool {
	return underAny(rel, []string{"internal/serve", "internal/gate"})
}

// underAny reports whether rel is one of the roots or nested below one.
func underAny(rel string, roots []string) bool {
	for _, r := range roots {
		if rel == r || strings.HasPrefix(rel, r+"/") {
			return true
		}
	}
	return false
}
