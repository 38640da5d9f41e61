"""Mine version-control commit logs for file authorship and collaboration analytics.

The pipeline: parse an NDJSON commit log, canonicalize author
identities, filter excluded paths, accumulate per-file counters up to
each release boundary, then score authorship and derive workload,
profile and co-authorship network statistics per release and subsystem.
Along a release series, each release recomputes only the files that
changed since the previous one (`SeriesState`).
"""

__version__ = "0.1.0"

from .doa import (DevScore, DoaThresholds, FileAuthorship, author_proportion,
                  compute_authorship, doa_absolute, score_file)
from .errors import (AuthormineError, BoundaryNotFoundError, ConfigError,
                     LogParseError, LogSchemaError)
from .ingest import (ChangeKind, CommitRecord, DeveloperId, FileChange, ReleaseTag,
                     apply_path_filters, load_alias_map, load_releases,
                     parse_commit_log, resolve_aliases)
from .network import (CoauthorGraph, assortativity, build_graph, clustering_avg_local,
                      clustering_global, mean_degree, solitary_authors)
from .profiles import ProfileBreakdown, profile_proportions
from .series import SeriesState
from .snapshot import FileCounters, ReleaseSnapshot, iter_snapshots
from .subsystems import (SubsystemRules, default_rules, load_rules, make_rules,
                         scope_partition)
from .workload import (Fences, TopKShare, adjusted_fences, files_per_author, gini,
                       medcouple, quantile, top_k_share)

__all__ = [name for name in dir() if not name.startswith("_")]
