package tcpdemux

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// goldenRun is one line of testdata/golden/MANIFEST: the golden file the
// run's stdout goes to, the main package that prints it, its arguments.
type goldenRun struct {
	golden, pkg string
	args        []string
}

func readManifest(t *testing.T) []goldenRun {
	t.Helper()
	f, err := os.Open("testdata/golden/MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var runs []goldenRun
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) < 2 {
			t.Fatalf("manifest line %q names no package", sc.Text())
		}
		runs = append(runs, goldenRun{fields[0], fields[1], fields[2:]})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return runs
}

// TestGoldens holds every exact number EXPERIMENTS.md quotes at tolerance
// 0. It builds each main package the manifest names once, runs every
// manifest line, and compares each golden with the concatenated stdout of
// its lines, byte for byte. `make golden` writes the goldens from the same
// manifest, so a number cannot be gated at one operating point and
// regenerated at another.
func TestGoldens(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("goldens are pinned on amd64; other architectures may fuse a multiply-add and move a printed digit")
	}
	runs := readManifest(t)
	bin := t.TempDir()
	build := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, r := range runs {
		if pkg := "./" + r.pkg; !slices.Contains(build, pkg) {
			build = append(build, pkg)
		}
	}
	if out, err := exec.Command("go", build...).CombinedOutput(); err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(build, " "), err, out)
	}

	got := map[string][]byte{}
	var goldens []string
	for _, r := range runs {
		cmd := exec.Command(filepath.Join(bin, path.Base(r.pkg)), r.args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s %s: %v\n%s", r.pkg, strings.Join(r.args, " "), err, stderr.Bytes())
		}
		if _, seen := got[r.golden]; !seen {
			goldens = append(goldens, r.golden)
		}
		got[r.golden] = append(got[r.golden], out...)
	}
	for _, g := range goldens {
		want, err := os.ReadFile(g)
		if err != nil {
			t.Errorf("%v (make golden writes it)", err)
			continue
		}
		if !bytes.Equal(got[g], want) {
			t.Errorf("%s differs from a fresh run of its manifest lines; `make golden && git diff %s` shows every number that moved", g, g)
		}
	}
}

// TestGoldensCitedInExperiments holds the manifest and EXPERIMENTS.md to
// each other: every golden the manifest writes is cited there, and every
// testdata/golden file cited there is one the manifest writes.
func TestGoldensCitedInExperiments(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var manifest []string
	for _, r := range readManifest(t) {
		manifest = append(manifest, r.golden)
		if !bytes.Contains(doc, []byte(r.golden)) {
			t.Errorf("EXPERIMENTS.md does not cite the golden %s", r.golden)
		}
	}
	for _, cited := range regexp.MustCompile(`testdata/golden/[\w.-]+\.txt`).FindAllString(string(doc), -1) {
		if !slices.Contains(manifest, cited) {
			t.Errorf("EXPERIMENTS.md cites %s, which testdata/golden/MANIFEST does not write", cited)
		}
	}
}
