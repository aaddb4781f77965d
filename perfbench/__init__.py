"""End-to-end benchmark of the paper's solvers and the allocation server."""
