package stress_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/check"
	"repro/internal/check/stress"
	"repro/internal/gmem"
	"repro/internal/sim"
)

// The golden digests below were captured from the checker as it stood before
// the consistency-tier rules landed. Strong-mode histories must keep
// producing bit-identical reports through any checker refactor: the history
// digest pins the recorded events (no new event kinds or mode tags may leak
// into strong runs) and the report digest pins the checker's verdict,
// violation kinds, messages, and evidence ordering.
func reportDigest(rep *check.Report) string {
	sum := sha256.Sum256([]byte(rep.String()))
	return hex.EncodeToString(sum[:])
}

func TestCheckerStrongGoldenClean(t *testing.T) {
	res, err := stress.Run(stress.Options{
		Seed: 42, NumPE: 4, OpsPerPE: 150,
		Caching: true, Loss: 0.1, Jitter: 300 * sim.Microsecond,
	})
	if err != nil {
		t.Fatalf("stress run: %v", err)
	}
	if got, want := res.History.Digest(), "d53a7adb6f5b3f8fe1f4f9a10ffa584d80ddfd33d5dd0937b14408469c2a3673"; got != want {
		t.Errorf("history digest drifted from seed recorder:\n got %s\nwant %s", got, want)
	}
	if !res.Report.OK() {
		t.Fatalf("expected consistent history, got:\n%s", res.Report)
	}
	if got, want := reportDigest(res.Report), "6c2503a31b786adaaa6fdcdd08fd4ac064aef7a6254fff38d36f33222f8eae58"; got != want {
		t.Errorf("report digest drifted from seed checker:\n got %s\nwant %s\nreport:\n%s", got, want, res.Report)
	}
}

func TestCheckerStrongGoldenViolations(t *testing.T) {
	res, err := stress.Run(stress.Options{
		Seed: 3, NumPE: 4, OpsPerPE: 300,
		Caching: true, FaultDropInvalidations: true,
	})
	if err != nil {
		t.Fatalf("stress run: %v", err)
	}
	if got, want := res.History.Digest(), "ab1270739a92b5bc24afb0c7f053555888fb08937c5460d479d1224523cc01f3"; got != want {
		t.Errorf("history digest drifted from seed recorder:\n got %s\nwant %s", got, want)
	}
	if res.Report.OK() {
		t.Fatal("expected violations from dropped invalidations")
	}
	if got, want := len(res.Report.Violations), 5; got != want {
		t.Errorf("violation count drifted: got %d want %d", got, want)
	}
	if got, want := reportDigest(res.Report), "104c9f111291969d10d6d9819d3b519d54dade3440e580a95ad2eff80082e254"; got != want {
		t.Errorf("report digest drifted from seed checker:\n got %s\nwant %s\nreport:\n%s", got, want, res.Report)
	}
}

// goldenRoutes pins the recorded history of one seeded simnet run per GM
// access route. The digests were captured before the PE-side transfer paths
// were unified, except the one-sided rows, recaptured when atomics and
// block/gather reads joined the window route; any change to the sequence of
// local accesses, clock reads or sends an operation makes (or to the events
// it records) moves them. All rows but the lossy one are fault-free, so the
// workload also issues block, gather and scatter operations. The churn rows
// must also fire at least three membership events, so window atomics and
// run reads meet live migrations.
var goldenRoutes = []struct {
	name    string
	opts    stress.Options
	history string
	report  string
}{
	{"message", stress.Options{Shards: 1},
		"f90855cf12ba9f7c63c6ada254a5ec522661486cc030e743afe32376973c63b4",
		"dafd7c8f84a3bd7b510061ef0390376a1a59f61969d3dab3381853f11a509987"},
	{"one-sided", stress.Options{Shards: 2},
		"f67f35d299dfee4c402c331f6a665108dd0f317ffee945801a110704d5ddb671",
		"dafd7c8f84a3bd7b510061ef0390376a1a59f61969d3dab3381853f11a509987"},
	{"caching", stress.Options{Caching: true},
		"be6ca400d2f30da4548ef174bd8212fa4026d61cfa0ad082fffd76f2fcd53787",
		"dafd7c8f84a3bd7b510061ef0390376a1a59f61969d3dab3381853f11a509987"},
	{"modes-one-sided", stress.Options{Shards: 2, Modes: true},
		"53f4c374fb0916ec1e8406dad5f8fe430854b463723934a1b04da7b80e5d987b",
		"ec3cc892e21bff723a86f22f727823169593768e41b58c01b819a1d35c8948fe"},
	{"modes-churn", stress.Options{NumPE: 5, Modes: true, Latent: 1, JoinAtOp: 40, LeavePE: 3, LeaveAtOp: 120, MigrateEvery: 50},
		"f76b7ff6bec8c57ab2b958f31a9d5fd9763f71de36237715adc2c63f5135b589",
		"6f384f061d4a16f3489e335770bac56c0f1efa0a8de487fad6b79e9a734be39e"},
	{"one-sided-churn", stress.Options{NumPE: 5, Shards: 2, Latent: 1, JoinAtOp: 40, LeavePE: 3, LeaveAtOp: 120, MigrateEvery: 50},
		"52d7d308b16a443f979c87255c6368805c7d5388031197c81e49919f0479fd88",
		"311f7643e25eca26dafc8fd56d5ab2dfc9a03f64d6a886e5e33f5b664aed2b74"},
	{"message-loss", stress.Options{Shards: 1, Loss: 0.05},
		"dca78bd002ba9a6de7ba2a150b1e54f06b665d28cc0aec05dc53990c646bece0",
		"e5d50801e08ee68c19d28ac6434b086719a2137c8dc3dff8f5c4399d03c219a0"},
}

func TestStressGoldenRoutes(t *testing.T) {
	for _, row := range goldenRoutes {
		t.Run(row.name, func(t *testing.T) {
			o := row.opts
			o.Seed, o.OpsPerPE = 7, 200
			if o.NumPE == 0 {
				o.NumPE = 4
			}
			res, err := stress.Run(o)
			if err != nil {
				t.Fatalf("stress run: %v", err)
			}
			if res.Err != nil {
				t.Fatalf("PE error: %v", res.Err)
			}
			if !res.Report.OK() {
				t.Fatalf("expected consistent history, got:\n%s", res.Report)
			}
			if o.Latent > 0 && res.Joins+res.Leaves+res.Migrations < 3 {
				t.Errorf("churn row fired %d joins, %d leaves, %d migrations; want >= 3 events",
					res.Joins, res.Leaves, res.Migrations)
			}
			if got := res.History.Digest(); got != row.history {
				t.Errorf("history digest drifted:\n got %s\nwant %s", got, row.history)
			}
			if got := reportDigest(res.Report); got != row.report {
				t.Errorf("report digest drifted:\n got %s\nwant %s", got, row.report)
			}
		})
	}
}

// The checker mirrors gmem.Mode as untyped byte tags to stay free of runtime
// imports; this pins the two enumerations together.
func TestModeTagsMirrorGmem(t *testing.T) {
	if gmem.ModeStrong != 0 || gmem.ModeRelease != 1 || gmem.ModeLease != 2 || gmem.NumModes != 3 {
		t.Fatalf("gmem.Mode values moved; update the check package's mode tags to match")
	}
}
