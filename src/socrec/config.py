"""The training config, and the one reader and writer of `key=value` files:
config files, run and checkpoint config echoes and dataset `meta`."""

import math
from dataclasses import asdict, dataclass, fields, replace

VARIANTS = ("full", "no_align", "direct_social", "contrastive")
LEAKY_SLOPE = 0.01  # LeakyReLU negative slope used by the similarity projection


def read_value(key, text, kind):
    """`text` read as `kind`; a tuple takes comma-separated ints."""
    try:
        return tuple(int(x) for x in text.split(",")) if kind is tuple else kind(text)
    except ValueError:
        raise ValueError(f"config key {key}: cannot read {text!r} "
                         f"as {kind.__name__}") from None


def read_int(values, key, where, default=None):
    """`values[key]` read as an int, or `default` if the key is absent; an
    absent key without a default, or text that is no int, is an error
    naming `where`."""
    if key not in values:
        if default is None:
            raise ValueError(f"{where} has no {key}= line")
        return default
    try:
        return read_value(key, values[key], int)
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from None


def parse_config_file(path):
    """key=value lines, '#' comments; values stay strings until coercion."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def write_lines(path, lines):
    """Write `lines` to `path`, each ended by a newline."""
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class TrainConfig:
    """All training hyperparameters.

    Variants: "full" keeps every term; "no_align" drops the cross-view
    alignment loss; "direct_social" drops both social-side losses and
    instead adds social user embeddings into interaction scoring;
    "contrastive" swaps the hinge alignment for InfoNCE at the same weight.
    """

    dim: int = 128
    layers: int = 2
    lr: float = 1e-3
    lr_decay: float = 0.96
    batch: int = 2048
    lambda1: float = 1e-1
    lambda2: float = 1e-5
    lambda3: float = 1e-6
    epochs: int = 100
    patience: int = 10
    agg: str = "sum"
    variant: str = "full"
    infonce_tau: float = 0.1
    seed: int = 0
    negatives: int = 99
    cutoffs: tuple = (5, 10, 20)

    def __post_init__(self):
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"config key {f.name} must be finite, "
                                 f"got {getattr(self, f.name)!r}")
        for key, low in (("dim", 1), ("batch", 1), ("negatives", 1), ("cutoffs", 1),
                         ("layers", 0), ("epochs", 0), ("patience", 0),
                         ("lambda1", 0), ("lambda2", 0), ("lambda3", 0), ("seed", 0)):
            value = getattr(self, key)  # every cutoff, and at least one
            if min(value if key == "cutoffs" else [value], default=-1) < low:
                raise ValueError(f"config key {key} must be >= {low}, got {value!r}")
        if len(set(self.cutoffs)) < len(self.cutoffs):
            raise ValueError(f"config key cutoffs must be distinct, got {self.cutoffs!r}")
        for key in ("lr", "infonce_tau"):
            if getattr(self, key) <= 0:
                raise ValueError(f"config key {key} must be > 0, "
                                 f"got {getattr(self, key)!r}")
        if not 0 < self.lr_decay <= 1:
            raise ValueError(f"config key lr_decay must lie in (0, 1], "
                             f"got {self.lr_decay!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, "
                             f"expected one of {', '.join(VARIANTS)}")
        if self.agg not in ("sum", "mean"):
            raise ValueError("agg must be 'sum' or 'mean'")

    def read(self, values, where, complete=False):
        """This config with the fields key -> text `values` from `where` set,
        typed and range-checked; an error names `where`. A key is a field, or
        `leaky_slope` at its fixed value as in the echo (`lines`); `complete`
        requires every field, so no default stands in for a missing one."""
        kinds = {f.name: f.type for f in fields(self)}
        unknown = sorted(set(values) - {*kinds, "leaky_slope"})
        if unknown:
            raise ValueError(f"unknown config key(s) in {where}: {', '.join(unknown)}")
        for key in kinds if complete else ():
            if key not in values:
                raise ValueError(f"{where} has no {key}= line")
        slope = values.get("leaky_slope", str(LEAKY_SLOPE))
        try:
            if read_value("leaky_slope", slope, float) != LEAKY_SLOPE:
                raise ValueError(f"config key leaky_slope: the slope is fixed at "
                                 f"{LEAKY_SLOPE}, got {slope!r}")
            return replace(self, **{key: read_value(key, values[key], kind)
                                    for key, kind in kinds.items() if key in values})
        except ValueError as err:
            raise ValueError(f"{where}: {err}") from None

    def lines(self):
        """The echo: one `key=value` line per field, then the fixed slope."""
        values = {**asdict(self), "cutoffs": ",".join(map(str, self.cutoffs)),
                  "leaky_slope": LEAKY_SLOPE}
        return [f"{key}={val}" for key, val in values.items()]

    def effective_weights(self):
        """(lambda1, lambda2) after applying the variant semantics."""
        l1, l2 = self.lambda1, self.lambda2
        if self.variant == "no_align":
            l2 = 0.0
        elif self.variant == "direct_social":
            l1 = 0.0
            l2 = 0.0
        return l1, l2

    @property
    def social_fusion(self):
        return self.variant == "direct_social"

    def with_overrides(self, **kw):
        return replace(self, **kw)
