"""Toolkit for the randomized reduction from k-vector-sum to gap clique.

Modules
-------
ffield      primality and the next prime
lintest     linearity testing, Fourier analysis, list decoding, piecing
vecsum      vector-sum instances: generation, brute-force deciding, validation
randmap     the random block-linear map and its two goodness properties
reduction   parameter schedule, vertex set, edge oracle, decoder, materialization
cliquesolve exact and greedy clique search, graph file export and readers
cli         command-line pipeline and the experiment harness
"""

__version__ = "0.1.0"
