package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// fakeChild, when set in the environment, makes the test binary stand in
// for the benchmark in the processes runEach starts: it prints its
// process id and arguments, and exits 1 for the workload the variable
// names.
const fakeChild = "SERVING_BENCH_FAKE_CHILD"

func TestMain(m *testing.M) {
	if fail, ok := os.LookupEnv(fakeChild); ok {
		args := os.Args[1:]
		fmt.Println(os.Getpid(), strings.Join(args, " "))
		if args[len(args)-1] == fail {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestEachWorkloadRunsInItsOwnProcess(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(fakeChild, "rotate")
	var out, errOut bytes.Buffer
	args := []string{"--workload", "all", "--seed", "7"}
	if code := runEach(exe, args, workloads, &out, &errOut); code != 1 {
		t.Errorf("a workload's process failed, but runEach exited %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(workloads) {
		t.Fatalf("%d processes ran, want one per workload:\n%s", len(lines), out.String())
	}
	pids := map[string]bool{}
	for i, l := range lines {
		pid, got, _ := strings.Cut(l, " ")
		pids[pid] = true
		if want := "--workload all --seed 7 --workload " + workloads[i].name; got != want {
			t.Errorf("process %d ran with %q, want %q", i, got, want)
		}
	}
	if len(pids) != len(workloads) {
		t.Errorf("workloads shared processes: %d process ids for %d workloads", len(pids), len(workloads))
	}
}
