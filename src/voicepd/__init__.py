"""Voice-based dysphonia analysis: WAV ingestion, pitch/cycle detection,
19 acoustic features, chi-square ranking, and three-class classification."""
