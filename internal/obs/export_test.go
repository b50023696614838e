package obs

// Fixtures shared with the external codec tests (codec_test.go), which
// live in package obs_test so their schema table can include the
// claims artifact.
var (
	SampleArtifact   = sampleArtifact
	SampleCheckpoint = sampleCheckpoint
	SampleExplore    = sampleExplore
	SampleLint       = sampleLint
	SampleStress     = stressFixture
	SampleTrace      = sampleTrace
)
