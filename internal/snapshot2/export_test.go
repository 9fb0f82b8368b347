package snapshot2

// Test helpers exposed to the external snapshot2_test package, whose tests
// import query (which imports snapshot2).
var (
	TestDB             = testDB
	Reseal             = reseal
	OddCodes           = oddCodes
	TypedSnapshotError = typedSnapshotError
)

const (
	Magic     = magic
	HeaderLen = headerLen
)
