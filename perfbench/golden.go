package main

// recordedDigests are the outcome digests of the default seeds, 0 to 10,
// recorded from the program as it stood when the benchmark was defined. A
// change that moves one changed a simulated outcome; the ROADMAP counts
// that as a bug, not a speed-up. A seed with no entry gets the invariant
// and determinism checks only (the run logs its digest on standard error).
var recordedDigests = map[string]map[int64]string{
	"des-longhaul": {
		0:  "bf6da962b3d018fc",
		1:  "c62c1554d154fb21",
		2:  "33ef27c2881704c8",
		3:  "761bb434f40ad529",
		4:  "a8a85d76eb8d16f4",
		5:  "add4cd302aeedf84",
		6:  "4b566fc3448bcee8",
		7:  "2c20bd01e3cc6f59",
		8:  "4628955a2feb2480",
		9:  "f352d09c25c0fb60",
		10: "2b46dc5988bdc3ea",
	},
	"des-sweep": {
		0:  "3ec70f72789801a5",
		1:  "2d6bfc96dc1da14b",
		2:  "f677e2154404a067",
		3:  "5f61a26d17383cd0",
		4:  "4a9ea4ca503c6c42",
		5:  "1ff2e883b9a7953a",
		6:  "abe6292aabe3e494",
		7:  "77e867858d42dccb",
		8:  "2f1820a4e708a809",
		9:  "eba410a5d5f305f8",
		10: "73901da459702af3",
	},
	"model-sweep": {
		0:  "d5eb9856c39247b4",
		1:  "1914ecb2ab1b2b38",
		2:  "bbdadf4071ae2148",
		3:  "cacd73c4e67bfcaa",
		4:  "0e3fc0103c8bfa56",
		5:  "7fb6c95192fd7221",
		6:  "52b9909adcc37b10",
		7:  "7a98c9f7193723f8",
		8:  "6a463516afac07f4",
		9:  "a6b86d6d7e6443c6",
		10: "6bcf139b1bf59b9c",
	},
}
