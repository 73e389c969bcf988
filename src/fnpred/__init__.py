"""Function-name prediction for stripped binaries.

The package covers the full desk-scale pipeline:

* :mod:`fnpred.ingest` — disassembly normalization, instruction tokens,
  CFGs and k-hop neighborhoods, grouped dataset splits.
* :mod:`fnpred.tokenizer` — voting-based splitting of function names into
  word labels (frequency model, unigram LM, rule-based segmentation).
* :mod:`fnpred.relations` — lexical relations between labels (synonym,
  abbreviation, related) and canonical label election.
* :mod:`fnpred.pretrain` — self-supervised assembly-LM sample builders.
* :mod:`fnpred.encoder` — control-flow-aware function encoder.
* :mod:`fnpred.tasks` — name generation and similarity heads with losses.
* :mod:`fnpred.trainer` — Adam, gradient checking, pretraining and
  fine-tuning loops.
* :mod:`fnpred.metrics` — word-level precision/recall/F1, OOV ratio, KL.
* :mod:`fnpred.cli` — the ``fnpred`` command-line entry point.

The two numeric kernels (Smith-Waterman and skip-gram epochs) are plain
Python/NumPy functions in :mod:`fnpred.kernels`.
"""

__version__ = "0.1.0"
