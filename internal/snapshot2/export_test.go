package snapshot2

// TestDB exposes testDB to the external snapshot2_test package, whose
// tests import query (which imports snapshot2).
var TestDB = testDB
