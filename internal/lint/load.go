package lint

import (
	"fmt"
	"go/build/constraint"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// FindModuleRoot walks upward from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// moduleName reads the module path from root/go.mod, defaulting to
// DefaultModule when the file or directive is absent (fixture trees).
func moduleName(root string) string {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return DefaultModule
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			if rest = strings.TrimSpace(rest); rest != "" {
				return strings.Trim(rest, `"`)
			}
		}
	}
	return DefaultModule
}

// LoadModule parses every Go package under root into one shared FileSet.
// Directories named testdata, vendor, or starting with "." or "_" are
// skipped (testdata holds the linter's own deliberately-violating fixtures),
// as are files whose //go:build constraint a default build excludes.
// Files that fail to parse abort the load: a lint run over a tree that does
// not parse would under-report, not over-report.
func LoadModule(root string) ([]*Package, *token.FileSet, error) {
	fset := token.NewFileSet()
	module := moduleName(root)
	var pkgs []*Package
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if rel == "." {
			rel = ""
		}
		pkg, err := loadDir(fset, path, rel)
		if err != nil {
			return err
		}
		if pkg != nil {
			pkg.Module = module
			pkgs = append(pkgs, pkg)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Dir < pkgs[j].Dir })
	return pkgs, fset, nil
}

// LoadDir parses a single directory as one Package with Dir set to relDir
// (which determines, e.g., whether simdeterminism applies). Used by fixture
// tests to pose as specific module paths.
func LoadDir(dir, relDir string) (*Package, error) {
	fset := token.NewFileSet()
	pkg, err := loadDir(fset, dir, relDir)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	return pkg, nil
}

func loadDir(fset *token.FileSet, dir, rel string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Dir: rel, Fset: fset, Module: DefaultModule}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasPrefix(e.Name(), ".") || strings.HasPrefix(e.Name(), "_") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if buildExcluded(src) {
			continue
		}
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if pkg.Name == "" {
			pkg.Name = f.Name.Name
		}
		pkg.Files = append(pkg.Files, SourceFile{
			Name: path,
			AST:  f,
			Test: strings.HasSuffix(e.Name(), "_test.go"),
		})
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	return pkg, nil
}

// buildExcluded reports whether the file's //go:build constraint (if any)
// excludes it from a default build of this tree: the tag set `go build`
// would use with no -tags flag. Without this, tag-disjoint file pairs (e.g.
// `//go:build race` / `//go:build !race` declaring the same constant) parse
// as a redeclaration the compiler never sees.
func buildExcluded(src []byte) bool {
	for _, line := range strings.Split(string(src), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "package ") {
			return false // constraints must precede the package clause
		}
		if !constraint.IsGoBuild(trimmed) {
			continue
		}
		expr, err := constraint.Parse(trimmed)
		if err != nil {
			return false // malformed line: keep the file, let go vet complain
		}
		return !expr.Eval(defaultBuildTag)
	}
	return false
}

// defaultBuildTag reports whether tag is satisfied in a default build: the
// host OS/arch, the gc toolchain, the "unix" alias, and every go1.N
// language version. Opt-in tags like "race" are unsatisfied.
func defaultBuildTag(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc":
		return true
	case "unix":
		return runtime.GOOS == "linux" || runtime.GOOS == "darwin"
	}
	return strings.HasPrefix(tag, "go1.")
}
