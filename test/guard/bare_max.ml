let _ = max 0 1
