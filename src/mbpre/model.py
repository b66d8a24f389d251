"""Offspring laws, environment letters, and the model-file codec.

A model couples, for each letter of a finite environment alphabet, one
finite-support offspring distribution per parent type, together with a
distribution over infinite letter sequences: i.i.d. draws or a stationary
finite Markov chain. Offspring distributions are identified with their
probability generating functions (pgfs), and the expectation matrix of a
letter collects the mean offspring counts by (parent type, child type).

All objects are immutable after construction and safe to share between
workers; sampling takes an explicit ``numpy.random.Generator``.

Every result and model object is a :class:`Record`: its annotated class
attributes are its dataclass fields, set once by the shared ``__init__``
(and by ``__post_init__``, which may normalize them through
``object.__setattr__``). Assigning or deleting an attribute afterwards
raises ``dataclasses.FrozenInstanceError``, as on a frozen dataclass; a
``cached_property`` fills the instance dict directly and stays allowed. The
base generates no method per class, so no record compiles code when its
module loads.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from functools import cached_property
from inspect import Parameter, Signature
from reprlib import recursive_repr

import numpy as np

from .errors import BudgetError, InvariantError, ModelFormatError, NotAllowableError

# Probability mass must balance to this absolute tolerance; masses are never
# renormalized silently.
MASS_TOL = 1e-12
# A Markov environment must come with an initial vector this close to
# stationary (the shift must be measure preserving).
STATIONARY_TOL = 1e-9
# Most letters one sampled word (or block of words) may hold; also bounds
# the letters of one chunk of environments in the depth-doubling loop of
# ``extinction``, the (trial, generation) entries of one chunk of trials and
# the draws of ``carpet.empirical_offspring_stats``.
LETTER_BUDGET = 1 << 26
# 95% normal quantile of every confidence interval (batch means, growth
# rates, Wilson); the normal approximation is a documented heuristic.
Z95 = 1.96

# Uniforms drawn at a time by the word samplers: their stream order is that
# of one whole draw, so a word keeps its bits at any slice size.
_WORD_SLICE = 1 << 14

# pgf arguments may drift past [0, 1] by accumulated rounding when pgf
# outputs are fed back in; anything worse is a caller bug.
_S_RANGE_TOL = 1e-9


class Record:
    """Base of the immutable records: dataclass fields without generated methods.

    A subclass's annotations become its dataclass fields (``fields``,
    ``asdict``, ``replace`` and ``is_dataclass`` see them), while the
    methods a frozen dataclass would compile per class come from here with
    the same semantics: construction by position or keyword with field
    defaults, then ``__post_init__``; assignment and deletion raise
    ``FrozenInstanceError``; ``repr``, ``==`` and ``hash`` go field by
    field, and ``==`` holds only between records of one class. A field
    takes at most a plain default: no ``dataclasses.field`` options.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        dataclass(cls, init=False, repr=False, eq=False)
        cls._names = tuple(f.name for f in fields(cls))

    def __init__(self, *args, **kwargs):
        names = self._names
        # every field by position, the library's own calls, skips the binding
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(names, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs):
        """Field values in order, bound from ``args`` and ``kwargs`` as a call binds them."""
        bound = Signature(
            [
                Parameter(f.name, Parameter.POSITIONAL_OR_KEYWORD,
                          default=Parameter.empty if f.default is MISSING else f.default)
                for f in fields(cls)
            ]
        ).bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.args

    def __post_init__(self):
        pass

    def _frozen(self, name, *value):
        raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __setattr__ = __delattr__ = _frozen

    def _values(self):
        return tuple(getattr(self, n) for n in self._names)

    @recursive_repr()
    def __repr__(self):
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._names)
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())


def _readonly(a):
    a.setflags(write=False)
    return a


def _check_mass(probs, what):
    """Require ``probs`` finite, in [0, 1] and summing to 1 within ``MASS_TOL``."""
    if not np.all(np.isfinite(probs)) or np.any(probs < 0):
        raise InvariantError(f"{what}: masses must be finite and non-negative")
    if np.any(probs > 1):
        raise InvariantError(f"{what}: a mass exceeds 1")
    total = float(probs.sum())
    if abs(total - 1.0) > MASS_TOL:
        raise InvariantError(f"{what}: masses sum to {total!r}, not 1 within {MASS_TOL}")


def check_word(word, n_letters):
    """``word`` as an array, if it is a non-empty 1-D word of integers in [0, ``n_letters``)."""
    word = np.asarray(word)
    if word.ndim != 1 or word.size == 0:
        raise ValueError("word must be a non-empty sequence of letter indices")
    if not np.issubdtype(word.dtype, np.integer) or word.min() < 0 or word.max() >= n_letters:
        raise ValueError(f"word letters must be integers in [0, {n_letters})")
    return word


def child_seeds(seed, n):
    """Children 0, ..., n - 1 of ``seed``, each built when it is reached.

    ``seed`` is an int or a ``SeedSequence`` parent; child k has the parent's
    entropy and k appended to its spawn key. That is entry k of the spawn(n)
    of a parent that has not spawned yet, built without the other children.
    Every seeded estimator splits its seed so.
    """
    parent = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    for k in range(n):
        yield np.random.SeedSequence(
            parent.entropy, spawn_key=parent.spawn_key + (k,), pool_size=parent.pool_size
        )


def mean_half_width(values):
    """95% half-width of the mean of the 1-D array ``values``: ``Z95`` standard errors."""
    return float(Z95 * values.std(ddof=1) / math.sqrt(values.size))


def _check_svalue(s, n_types):
    """Validate and clip a pgf argument to [0, 1]^N (scalar batch ok)."""
    s = np.asarray(s, dtype=float)
    if s.ndim == 0 or s.shape[-1] != n_types:
        raise ValueError(
            f"pgf argument has dimension {s.shape[-1] if s.ndim else 0}, "
            f"expected {n_types}"
        )
    # tested as "inside", so that NaN, which fails every comparison, is outside
    if not np.all((s >= -_S_RANGE_TOL) & (s <= 1.0 + _S_RANGE_TOL)):
        raise ValueError("pgf argument outside [0, 1]")
    return np.clip(s, 0.0, 1.0)


class OffspringLaw(Record):
    """Finite-support distribution over offspring count vectors.

    ``counts`` is a (K, N) array of non-negative integers and ``probs`` the
    matching (K,) probability vector. Support atoms must be pairwise
    distinct and the masses must sum to 1 within ``MASS_TOL``.
    """

    counts: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        counts = np.atleast_2d(np.asarray(self.counts, dtype=np.int64))
        probs = np.asarray(self.probs, dtype=float).ravel()
        object.__setattr__(self, "counts", _readonly(counts))
        object.__setattr__(self, "probs", _readonly(probs))
        if counts.ndim != 2 or counts.shape[0] == 0:
            raise InvariantError("offspring support must be a non-empty list of count vectors")
        if counts.shape[0] != probs.shape[0]:
            raise InvariantError("offspring support and probability lengths differ")
        if np.any(counts < 0):
            raise InvariantError("offspring counts must be non-negative")
        _check_mass(probs, "offspring probabilities")
        atoms = counts.tolist()
        if len(set(map(tuple, atoms))) != len(atoms):
            raise InvariantError("offspring support atoms must be pairwise distinct")
        # totals in Python ints: an int64 sum would wrap
        largest = max(atoms, key=sum)
        if sum(largest) > np.iinfo(np.int64).max:
            raise InvariantError(
                f"offspring atom {largest} totals {sum(largest)} children, past the int64 range"
            )

    @classmethod
    def from_pairs(cls, pairs):
        """Build from ``[(count_vector, probability), ...]``."""
        counts = [list(z) for z, _ in pairs]
        probs = [p for _, p in pairs]
        return cls(np.array(counts, dtype=np.int64), np.array(probs, dtype=float))

    @property
    def n_types(self):
        return self.counts.shape[1]

    @cached_property
    def mean(self):
        """Expected offspring count per child type, shape (N,)."""
        return _readonly(self.probs @ self.counts)

    @cached_property
    def _cdf(self):
        # partial sums without the total: a uniform past the last one picks
        # the last atom, also when the masses sum a rounding short of 1
        return _readonly(np.cumsum(self.probs)[:-1])

    def pgf(self, s):
        """Evaluate the pgf at ``s`` (with 0^0 = 1); batched over leading axes."""
        s = _check_svalue(s, self.n_types)
        # (..., 1, N) ** (K, N) -> (..., K, N); product over types, left to
        # right as np.prod does, then the mass-weighted sum
        t = s[..., None, :] ** self.counts
        v = t[..., 0]
        for i in range(1, self.n_types):
            v = v * t[..., i]
        value = v @ self.probs
        # masses balance only to MASS_TOL, so shave float dust off [0, 1]
        return np.clip(value, 0.0, 1.0)

    def factorial_second_moments(self):
        """Matrix of E[z_i z_j] - delta_ij E[z_i], the pgf Hessian at 1."""
        z = self.counts.astype(float)
        m = np.einsum("k,ki,kj->ij", self.probs, z, z)
        return m - np.diag(self.mean)

    def mass_producing(self, i):
        """Total probability of bearing at least one type-``i`` child."""
        return float(self.probs[self.counts[:, i] > 0].sum())

    def low_offspring_mass(self):
        """Probability of bearing at most one child in total."""
        return float(self.probs[self.counts.sum(axis=1) <= 1].sum())

    def sample(self, rng, size=None):
        """Draw one count vector, or ``size`` of them as a (size, N) array."""
        return self.counts[np.searchsorted(self._cdf, rng.random(size), side="right")]


class EnvironmentLetter(Record):
    """A named environment letter: one offspring law per parent type."""

    name: str
    laws: tuple

    def __post_init__(self):
        object.__setattr__(self, "laws", tuple(self.laws))
        if not self.laws:
            raise InvariantError(f"letter {self.name!r} has no offspring laws")
        n = self.laws[0].n_types
        if any(law.n_types != n for law in self.laws):
            raise InvariantError(f"letter {self.name!r} mixes count-vector dimensions")

    @property
    def n_types(self):
        return self.laws[0].n_types

    def pgf_vector(self, s):
        """Stack of per-parent-type pgf values; batched over leading axes."""
        return np.stack([law.pgf(s) for law in self.laws], axis=-1)

    @cached_property
    def expectation(self):
        """Expectation matrix M(i, k) = mean number of type-k children of a type-i parent."""
        return _readonly(np.stack([law.mean for law in self.laws]))


def word_dtype(n_letters):
    """Dtype of every word over ``n_letters`` letters: the narrowest unsigned one that holds them.

    ``uint8`` up to 256 letters, so a word takes one byte a letter and a
    ``LETTER_BUDGET`` word 64 MB.
    """
    return np.min_scalar_type(n_letters - 1)


def _word_buffer(n, rows, n_letters):
    """An empty word of ``n`` letters over ``n_letters``, or a (rows, n) block with ``rows``.

    A word of more than ``LETTER_BUDGET`` letters in all raises
    :class:`BudgetError` before anything is allocated.
    """
    shape = (n,) if rows is None else (rows, n)
    if math.prod(shape) > LETTER_BUDGET:
        raise BudgetError(
            f"a word of {' x '.join(map(str, shape))} letters exceeds the budget of "
            f"{LETTER_BUDGET} letters"
        )
    return np.empty(shape, dtype=word_dtype(n_letters))


class IidEnvironment(Record):
    """Letters drawn independently with fixed probabilities."""

    probs: np.ndarray
    kind = "iid"

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float).ravel()
        object.__setattr__(self, "probs", _readonly(probs))
        if probs.size == 0:
            raise InvariantError("environment needs at least one letter")
        _check_mass(probs, "environment.probs")

    @property
    def n_letters(self):
        return self.probs.size

    @property
    def letter_mass(self):
        """Per-letter stationary probability."""
        return self.probs

    @property
    def step_pattern(self):
        """Read-only (L, L) booleans: [a, b] when a step from letter a to b has positive mass."""
        return np.broadcast_to(self.probs > 0, (self.n_letters, self.n_letters))

    def sample_word(self, n, rng, rows=None):
        """Length-``n`` word of letter indices in ``word_dtype``, drawn whole from ``rng``.

        The word is a prefix of every longer word drawn from the same
        generator state. With ``rows`` the result is a (rows, n) block of
        independent words, drawn together.

        Each letter takes one uniform u and is the number of entries of
        ``cumsum(probs) / cumsum(probs)[-1]`` that lie at or below u, with
        the last entry left out: the CDF and the uniforms of
        ``rng.choice(p=probs)``, so every word equals that draw. The
        uniforms come ``_WORD_SLICE`` at a time in stream order over the
        letters in row-major order, and each slice is counted by one
        compare-and-add pass per entry straight into the word, so sampling
        holds the word and 128 kB of uniforms.
        """
        word = _word_buffer(n, rows, self.n_letters)
        letters = word.reshape(-1)  # a view: the buffer is C-contiguous
        for start in range(0, letters.size, _WORD_SLICE):
            part = letters[start : start + _WORD_SLICE]
            u = rng.random(part.size)
            part.fill(0)
            for edge in self._cdf:
                part += u >= edge
        return word

    @cached_property
    def _cdf(self):
        cdf = np.cumsum(self.probs)
        return _readonly(cdf[:-1] / cdf[-1])

    def cylinder_probability(self, word):
        """Probability that the environment starts with the given finite word."""
        return float(np.prod(self.probs[check_word(word, self.n_letters)]))

    def cylinder_log_probability(self, word):
        """Natural log of ``cylinder_probability``, a sum of logs that cannot underflow."""
        with np.errstate(divide="ignore"):
            return float(np.log(self.probs[check_word(word, self.n_letters)]).sum())


class MarkovEnvironment(Record):
    """Letters drawn from a stationary finite Markov chain.

    The initial vector must be stationary for the transition matrix (it is
    verified, not computed): the letter process has to be a stationary
    sequence for the growth exponents to exist.
    """

    initial: np.ndarray
    transition: np.ndarray
    kind = "markov"

    def __post_init__(self):
        initial = np.asarray(self.initial, dtype=float).ravel()
        transition = np.asarray(self.transition, dtype=float)
        object.__setattr__(self, "initial", _readonly(initial))
        object.__setattr__(self, "transition", _readonly(transition))
        L = initial.size
        if L == 0:
            raise InvariantError("environment needs at least one letter")
        if transition.shape != (L, L):
            raise InvariantError("transition matrix shape does not match initial vector")
        _check_mass(initial, "environment.initial")
        for i, row in enumerate(transition):
            _check_mass(row, f"environment.transition row {i}")
        drift = np.max(np.abs(initial @ transition - initial))
        if drift > STATIONARY_TOL:
            raise InvariantError(
                f"environment.initial is not stationary for the transition matrix "
                f"(max drift {drift:.3e} > {STATIONARY_TOL})"
            )

    @property
    def n_letters(self):
        return self.initial.size

    @property
    def letter_mass(self):
        """Per-letter stationary probability: 0 on a letter the chain cannot return to.

        A stationary law puts no mass on a letter that reaches some letter
        which does not reach it back, so initial mass there is rounding dust.
        """
        reach = np.eye(self.n_letters, dtype=bool) | self.step_pattern
        for _ in range(math.ceil(math.log2(self.n_letters))):
            reach = reach @ reach
        recurrent = (reach <= reach.T).all(axis=1)
        return _readonly(np.where(recurrent, self.initial, 0.0))

    @property
    def step_pattern(self):
        return _readonly(self.transition > 0)

    def sample_word(self, n, rng, rows=None):
        """Length-``n`` word of letter indices in ``word_dtype``, drawn whole from ``rng``.

        The first letter comes from the initial vector. The word is a
        prefix of every longer word drawn from the same generator state.
        With ``rows`` the result is a (rows, n) block of independent words,
        drawn together.

        Each letter takes one uniform u and is the number of entries of its
        CDF row (the initial vector's for the first letter, else the
        previous letter's transition row) that lie at or below u, with the
        row's last entry left out, so a total mass a rounding short of 1
        still gives a letter. All rows draw their first letters together;
        then each row in turn walks its other n - 1 letters by ``bisect``
        in plain Python, over uniforms drawn ``_WORD_SLICE`` at a time, in
        the stream order of one row-major draw. A word is the one-row case.
        An empty word draws nothing.
        """
        word = _word_buffer(n, rows, self.n_letters)
        if n == 0:
            return word
        first = rng.random(rows)
        word[..., 0] = np.searchsorted(np.cumsum(self.initial)[:-1], first, side="right")
        cdf_rows = np.cumsum(self.transition, axis=1)[:, :-1].tolist()
        for row in word.reshape(-1, n):
            state = int(row[0])
            for start in range(1, n, _WORD_SLICE):
                path = []
                for x in memoryview(rng.random(min(_WORD_SLICE, n - start))):
                    state = bisect_right(cdf_rows[state], x)
                    path.append(state)
                row[start : start + len(path)] = path
        return word

    def cylinder_probability(self, word):
        """Probability that the environment starts with the given finite word."""
        word = check_word(word, self.n_letters)
        p = float(self.initial[word[0]])
        for a, b in zip(word[:-1], word[1:]):
            p *= float(self.transition[a, b])
        return p

    def cylinder_log_probability(self, word):
        """Natural log of ``cylinder_probability``, a sum of logs that cannot underflow."""
        word = check_word(word, self.n_letters)
        with np.errstate(divide="ignore"):
            steps = np.log(self.transition[word[:-1], word[1:]])
            return float(np.log(self.initial[word[0]]) + steps.sum())


class ModelSpec(Record):
    """A complete model: type count, letters, and environment distribution."""

    n_types: int
    letters: tuple
    environment: object

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        if self.n_types < 2:
            raise InvariantError("a model needs at least 2 types")
        if not self.letters:
            raise InvariantError("a model needs at least one letter")
        names = [letter.name for letter in self.letters]
        if len(set(names)) != len(names):
            raise InvariantError("letter names must be unique")
        for letter in self.letters:
            if len(letter.laws) != self.n_types:
                raise InvariantError(
                    f"letter {letter.name!r} has {len(letter.laws)} laws, expected {self.n_types}"
                )
            if letter.n_types != self.n_types:
                raise InvariantError(
                    f"letter {letter.name!r} count vectors have wrong dimension"
                )
        if self.environment.n_letters != len(self.letters):
            raise InvariantError(
                f"environment is over {self.environment.n_letters} letters, "
                f"model has {len(self.letters)}"
            )

    @property
    def n_letters(self):
        return len(self.letters)

    @cached_property
    def pgf_table(self):
        """Every letter's pgfs as one padded monomial table, built on first use.

        Returns ``(C, P)``: exponents ``C`` of shape (L, N, K, N) and masses
        ``P`` of shape (L, N, K), where K is the largest support size. Padding
        atoms have exponent 0 and mass 0, so they add exactly 0 to a pgf value.
        """
        laws = [law for letter in self.letters for law in letter.laws]
        k_max = max(law.probs.size for law in laws)
        exps = np.zeros((len(laws), k_max, self.n_types), dtype=np.int64)
        masses = np.zeros((len(laws), k_max))
        for i, law in enumerate(laws):
            exps[i, : law.probs.size] = law.counts
            masses[i, : law.probs.size] = law.probs
        shape = (self.n_letters, self.n_types, k_max)
        return _readonly(exps.reshape(shape + (self.n_types,))), _readonly(masses.reshape(shape))

    def expectation_matrices(self):
        return [letter.expectation for letter in self.letters]


# ---------------------------------------------------------------------------
# Operations


def second_moment_bound(model):
    """Largest second factorial moment E[z_i z_j] - delta_ij E[z_i] over the model's laws."""
    return float(
        max(law.factorial_second_moments().max() for letter in model.letters for law in letter.laws)
    )


def uniform_allowability_alpha(model):
    """Least mass producing a type-i child over triples with positive mean count.

    Scans every (letter, parent type, child type) with a positive
    expectation-matrix entry and returns the minimum of
    P(at least one type-i child). Every expectation matrix must be
    allowable (a positive entry in each row and column); otherwise a
    :class:`NotAllowableError` names the offender.
    """
    from .matcore import allowability_offenders  # loaded only when this check runs

    best = np.inf
    for letter in model.letters:
        m = letter.expectation
        offenders = allowability_offenders(m)
        if offenders:
            raise NotAllowableError(letter.name, *offenders[0])
        for k, law in enumerate(letter.laws):
            for i in range(model.n_types):
                if m[k, i] > 0:
                    best = min(best, law.mass_producing(i))
    return float(best)


# ---------------------------------------------------------------------------
# JSON codec.
#
# Schema (unknown keys rejected, laws indexed [parent_type][support_entry]):
#   {
#     "n_types": 2,
#     "letters": [{"name": ..., "laws": [[{"z": [0, 0], "p": 0.75}, ...], ...]}],
#     "environment": {"kind": "iid", "probs": [...]}
#                  | {"kind": "markov", "initial": [...], "transition": [[...]]}
#   }


def _require_keys(obj, allowed, required, path):
    if not isinstance(obj, dict):
        raise ModelFormatError(path, "expected an object")
    for key in obj:
        if key not in allowed:
            raise ModelFormatError(path, f"unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise ModelFormatError(path, f"missing key {key!r}")


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _float(v, path):
    """The JSON number ``v`` as a float, if a float can hold it."""
    try:
        return float(v)
    except OverflowError:
        raise ModelFormatError(path, "number too large for a float") from None


def _numbers(obj, path, size=None):
    """``obj`` as a float array, if it is a list of JSON numbers (``size`` of them if given)."""
    if not isinstance(obj, list) or not all(map(_is_number, obj)):
        raise ModelFormatError(path, "expected a list of numbers")
    if size is not None and len(obj) != size:
        raise ModelFormatError(path, f"expected a list of {size} numbers")
    return np.array([_float(v, f"{path}[{i}]") for i, v in enumerate(obj)])


def _parse_law(entries, n_types, path):
    if not isinstance(entries, list) or not entries:
        raise ModelFormatError(path, "expected a non-empty list of support entries")
    counts, probs = [], []
    for j, entry in enumerate(entries):
        here = f"{path}[{j}]"
        _require_keys(entry, {"z", "p"}, {"z", "p"}, here)
        z = entry["z"]
        if (
            not isinstance(z, list)
            or len(z) != n_types
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in z)
        ):
            raise ModelFormatError(f"{here}.z", f"expected a list of {n_types} integers")
        for m, v in enumerate(z):
            if not -(2**63) <= v < 2**63:
                raise ModelFormatError(f"{here}.z[{m}]", "integer outside the int64 range")
        p = entry["p"]
        if not _is_number(p):
            raise ModelFormatError(f"{here}.p", "expected a number")
        counts.append(z)
        probs.append(_float(p, f"{here}.p"))
    return OffspringLaw(np.array(counts, dtype=np.int64), np.array(probs, dtype=float))


def _parse_environment(obj, path):
    _require_keys(obj, {"kind", "probs", "initial", "transition"}, {"kind"}, path)
    kind = obj["kind"]
    if kind == "iid":
        _require_keys(obj, {"kind", "probs"}, {"kind", "probs"}, path)
        return IidEnvironment(_numbers(obj["probs"], f"{path}.probs"))
    if kind == "markov":
        _require_keys(obj, {"kind", "initial", "transition"}, {"kind", "initial", "transition"}, path)
        initial = _numbers(obj["initial"], f"{path}.initial")
        if not isinstance(obj["transition"], list):
            raise ModelFormatError(f"{path}.transition", "expected a list of rows")
        rows = [
            _numbers(row, f"{path}.transition[{i}]", initial.size)
            for i, row in enumerate(obj["transition"])
        ]
        return MarkovEnvironment(initial, np.array(rows))
    raise ModelFormatError(f"{path}.kind", f"unknown environment kind {kind!r}")


def parse_model(text):
    """Parse a model document (str or bytes) into a :class:`ModelSpec`.

    Schema violations raise :class:`ModelFormatError` with the JSON path;
    invariant violations raise :class:`InvariantError` naming the invariant.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # bad syntax, an integer past Python's digit limit, or nesting past
        # the recursion limit
        raise ModelFormatError("", f"invalid JSON: {exc}") from exc
    _require_keys(doc, {"n_types", "letters", "environment"}, {"n_types", "letters", "environment"}, "")
    n_types = doc["n_types"]
    if not isinstance(n_types, int) or isinstance(n_types, bool):
        raise ModelFormatError("n_types", "expected an integer")
    if not isinstance(doc["letters"], list) or not doc["letters"]:
        raise ModelFormatError("letters", "expected a non-empty list")
    letters = []
    for i, letter_obj in enumerate(doc["letters"]):
        path = f"letters[{i}]"
        _require_keys(letter_obj, {"name", "laws"}, {"name", "laws"}, path)
        if not isinstance(letter_obj["name"], str):
            raise ModelFormatError(f"{path}.name", "expected a string")
        if not isinstance(letter_obj["laws"], list) or len(letter_obj["laws"]) != n_types:
            raise ModelFormatError(f"{path}.laws", f"expected a list of {n_types} laws")
        laws = [
            _parse_law(entries, n_types, f"{path}.laws[{k}]")
            for k, entries in enumerate(letter_obj["laws"])
        ]
        letters.append(EnvironmentLetter(letter_obj["name"], tuple(laws)))
    environment = _parse_environment(doc["environment"], "environment")
    return ModelSpec(n_types, tuple(letters), environment)


def model_to_dict(model):
    env = model.environment
    if env.kind == "iid":
        env_obj = {"kind": "iid", "probs": [float(p) for p in env.probs]}
    else:
        env_obj = {
            "kind": "markov",
            "initial": [float(p) for p in env.initial],
            "transition": [[float(p) for p in row] for row in env.transition],
        }
    return {
        "n_types": model.n_types,
        "letters": [
            {
                "name": letter.name,
                "laws": [
                    [
                        {"z": [int(v) for v in z], "p": float(p)}
                        for z, p in zip(law.counts, law.probs)
                    ]
                    for law in letter.laws
                ],
            }
            for letter in model.letters
        ],
        "environment": env_obj,
    }


def write_model(model):
    """Serialize a model to JSON text; ``parse_model`` round-trips it exactly."""
    return json.dumps(model_to_dict(model), indent=2) + "\n"
