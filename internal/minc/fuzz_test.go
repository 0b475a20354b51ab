package minc_test

import (
	"strings"
	"testing"

	"softsec/internal/core"
	"softsec/internal/fuzz"
	"softsec/internal/minc"
)

// FuzzCompile: on arbitrary source, Compile returns an image or an error,
// never both and never a panic, with default options and with canaries
// and the checked dialect. The error of a source the front end accepts
// never comes from assembling the generated code, which would be a code
// generator bug. The seeds are the repository's MinC programs: the
// attack catalog's victims and the fuzzing campaigns' victims.
func FuzzCompile(f *testing.F) {
	seen := map[string]bool{}
	add := func(src string) {
		if !seen[src] {
			seen[src] = true
			f.Add(src)
		}
	}
	for _, a := range core.Attacks() {
		add(a.Victim)
	}
	for _, v := range fuzz.Victims() {
		add(v.Source)
	}
	f.Fuzz(func(t *testing.T, src string) {
		for _, opt := range []minc.Options{{}, {Canary: true, BoundsCheck: true}} {
			img, err := minc.Compile("fuzz.c", src, opt)
			if (img == nil) == (err == nil) {
				t.Fatalf("%+v: image %v, error %v: want exactly one", opt, img != nil, err)
			}
			if err != nil && strings.Contains(err.Error(), "internal error") {
				t.Fatalf("%+v: %v", opt, err)
			}
		}
	})
}
