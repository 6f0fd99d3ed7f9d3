package prof

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestFlagsWriteTheFilesAskedFor: all three profiles start, stop and
// leave a non-empty file; a path that cannot be created fails Start and
// leaves nothing running.
func TestFlagsWriteTheFilesAskedFor(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	f := Register(fs)
	paths := map[string]string{}
	var args []string
	for _, name := range []string{"cpuprofile", "memprofile", "trace"} {
		paths[name] = filepath.Join(dir, name)
		args = append(args, "-"+name, paths[name])
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for name, path := range paths {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("-%s left no data in %s (err %v)", name, path, err)
		}
	}

	bad := &Flags{cpu: filepath.Join(dir, "cpu2"), trace: filepath.Join(dir, "missing", "trace")}
	if _, err := bad.Start(); err == nil {
		t.Fatal("Start succeeded with an uncreatable -trace path")
	}
	// The CPU profile begun before the failure was stopped again.
	again := &Flags{cpu: filepath.Join(dir, "cpu3")}
	stop, err = again.Start()
	if err != nil {
		t.Fatalf("a CPU profile was left running: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
