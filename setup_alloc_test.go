package xmlnorm

import (
	"testing"

	"xmlnorm/internal/paperdata"
	"xmlnorm/internal/xfd"
)

// TestSpecCompileAllocs pins the allocation count of the set-up path
// every check pays before its first byte: parsing courses.spec and
// compiling its FDs into a CheckerSet. Interning and path lookups walk
// the universe by step, FD.Paths dedupes by path equality and IsPath
// walks the content model, so none of them builds strings or maps per
// path; a regression that reintroduces that churn fails here.
func TestSpecCompileAllocs(t *testing.T) {
	text := paperdata.MustRead("courses.spec")
	allocs := testing.AllocsPerRun(20, func() {
		spec, err := ParseSpec(text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := xfd.NewCheckerSetFor(spec.FDs); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ParseSpec + NewCheckerSetFor on courses.spec: %.0f allocations", allocs)
	if allocs > 190 {
		t.Errorf("spec compile makes %.0f allocations, want <= 190", allocs)
	}
}
