"""The paper's published data-plane timings (Tables 3 and 4) and microbenchmarks of ours."""
