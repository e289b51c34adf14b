"""Labeled tweet datasets: JSONL loading and persistence (records
`{"id", "text", "label"?}`, read and written by `rweets.jsonl`), and a
deterministic synthetic-corpus generator for desk-scale experiments.

Unlabeled tweets are accepted at load time so the same loader serves
inference inputs; training entry points reject them separately.
"""

import random
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ValidationError
from .jsonl import read_records, write_records


class RawTweet(NamedTuple):
    """One source tweet, exactly as loaded: an (id, text, label) row. Text
    may be empty; cleaning decides its fate later. `Dataset` checks the id."""

    id: str
    text: str
    label: str | None = None


@dataclass(frozen=True)
class LabelDomain:
    name: str
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) < 2:
            raise ValidationError(f"label domain {self.name!r} needs at least 2 labels")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError(f"label domain {self.name!r} has duplicate labels")

    def __contains__(self, label: str) -> bool:
        return label in self.labels

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValidationError(f"unknown label {label!r} for domain {self.name!r}") from None


NOT_RWEET = "not_rweet"
RWEET = "rweet"

BINARY = LabelDomain("binary", (NOT_RWEET, RWEET))
CATEGORICAL = LabelDomain(
    "categorical", ("money", "volunteer", "cloth", "shelter", "medical", "food")
)

DOMAINS = {d.name: d for d in (BINARY, CATEGORICAL)}


@dataclass(frozen=True)
class Dataset:
    """Immutable ordered collection of tweets over one label domain."""

    domain: LabelDomain
    tweets: tuple[RawTweet, ...]

    def __post_init__(self):
        seen = set()
        for tw in self.tweets:
            if not tw.id:
                raise ValidationError("tweet id must be a nonempty string")
            if tw.id in seen:
                raise ValidationError(f"duplicate tweet id {tw.id!r}")
            seen.add(tw.id)
            if tw.label is not None and tw.label not in self.domain:
                raise ValidationError(
                    f"unknown label {tw.label!r} for domain {self.domain.name!r}"
                )

    def __len__(self) -> int:
        return len(self.tweets)

    def __iter__(self):
        return iter(self.tweets)

    def texts_by_id(self) -> dict[str, str]:
        return {tw.id: tw.text for tw in self.tweets}

    def require_labeled(self) -> None:
        for tw in self.tweets:
            if tw.label is None:
                raise ValidationError(f"tweet {tw.id!r} is unlabeled; training requires labels")


def load_dataset(path, domain: LabelDomain) -> Dataset:
    """Load a JSONL dataset (see `rweets.jsonl`), validating labels against
    the domain.

    Raises ValidationError naming the file and line of the first malformed
    record, unknown label or duplicate id. FileNotFoundError propagates.
    """
    records = read_records(path, domain=domain)
    return Dataset(domain, tuple(
        RawTweet(record["id"], record["text"], record.get("label")) for record in records))


def save_dataset(dataset: Dataset, path) -> None:
    write_records(path, (
        {"id": tw.id, "text": tw.text} if tw.label is None
        else {"id": tw.id, "text": tw.text, "label": tw.label}
        for tw in dataset
    ))


# --- synthetic corpus -------------------------------------------------------
#
# Templates carry _resource_ / _location_ / _item_ slots. Request templates
# cover the three request forms seen in real disaster tweets (declarative,
# interrogative, imperative).

REQUEST_TEMPLATES = (
    # declarative
    "we are stuck at _location_ and need _resource_",
    "my family at _location_ has no _resource_ left",
    "people in _location_ still have no _resource_",
    "the _location_ shelter ran out of _resource_",
    "we lost everything in _location_ and need _resource_",
    # interrogative
    "where can we find _resource_ near _location_?",
    "can you bring _resource_ to _location_?",
    "does anyone have spare _resource_ for _location_?",
    "how can we get _resource_ in _location_?",
    # imperative
    "need _resource_ at _location_ please help",
    "please send _resource_ to _location_",
    "bring _resource_ to the _location_ camp now",
    "help us get _resource_ for _location_ families",
)

CHATTER_TEMPLATES = (
    "the storm passed over _location_ last night",
    "power is back on in most of _location_",
    "roads in _location_ reopened for traffic this morning",
    "the weather in _location_ is calm again today",
    "watched the news about _location_ with my neighbors",
    "stay strong _location_ #relief",
    "the _location_ team won their game yesterday",
    "walked around _location_ and took photos of the river",
    "schools in _location_ will open again on monday",
    "thinking of everyone in _location_ tonight",
)

CATEGORY_TEMPLATES = {
    "money": (
        "please donate money for _location_ relief",
        "raise funds for _location_ victims",
        "every dollar helps the _location_ relief fund",
        "send cash donations to the _location_ charity",
        "the _location_ fund needs more money now",
    ),
    "volunteer": (
        "volunteers needed to clear roads in _location_",
        "we need extra hands at the _location_ site",
        "sign up to volunteer for the _location_ cleanup",
        "join the volunteer crew working in _location_",
        "looking for volunteers to sort packages in _location_",
    ),
    "cloth": (
        "need warm clothes for kids in _location_",
        "please send jackets and blankets to _location_",
        "collecting coats and sweaters for _location_ families",
        "donate dry clothes for _location_ victims",
        "we ran out of socks and shirts at _location_",
    ),
    "shelter": (
        "need shelter at _location_ please help",
        "families at _location_ need a place to stay",
        "looking for housing near _location_ tonight",
        "the _location_ shelter is full where else can we stay?",
        "homes flooded in _location_ we need temporary shelter",
    ),
    "medical": (
        "need medicine for the injured at _location_",
        "blood donors needed at the _location_ hospital",
        "first aid kits required in _location_ urgently",
        "doctors and nurses needed at the _location_ clinic",
        "we need bandages and oxygen at _location_",
    ),
    "food": (
        "need food and water at _location_",
        "no meals left for families in _location_",
        "please send rice and canned food to _location_",
        "children in _location_ are hungry send food",
        "the _location_ kitchen needs bread and milk",
    ),
}

RESOURCES = (
    "food",
    "water",
    "shelter",
    "blankets",
    "medicine",
    "clothes",
    "fuel",
    "batteries",
    "generators",
    "supplies",
)

LOCATIONS = (
    "riverside",
    "bayview",
    "oakdale",
    "hillcrest",
    "northside",
    "lakeside",
    "midtown",
    "springfield",
    "the harbor district",
    "the east side",
)

_MENTION_NAMES = ("anna", "omar", "jess", "leo", "maria", "sam", "nina", "raj")
_URL_HOSTS = ("t.co", "x.co", "relief.org", "bit.ly")


def _fill(template: str, rng: random.Random) -> str:
    text = template.replace("_location_", rng.choice(LOCATIONS))
    text = text.replace("_resource_", rng.choice(RESOURCES))
    return text


def _noise_shape(rng: random.Random) -> tuple[bool, ...]:
    """Which decorations a tweet gets: (rt, mention, url, number, shout,
    bang), drawn in that order. Values are drawn separately so that
    near-duplicate pairs share the shape but not the surface text."""
    return tuple([rng.random() < p for p in (0.10, 0.35, 0.30, 0.25, 0.25, 0.30)])


def _decorate(core: str, shape: tuple, rng: random.Random) -> str:
    """Apply noise that washes out during cleaning: placeholder-bound tags,
    digits, casing, and trailing punctuation."""
    rt, mention, url, number, shout, bang = shape
    text = core
    if number:
        text = f"{text} {rng.randint(2, 500)} people affected"
    if mention:
        text = f"{text} @{rng.choice(_MENTION_NAMES)}{rng.randint(1, 99)}"
    if url:
        tail = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz23456789") for _ in range(6))
        text = f"{text} http://{rng.choice(_URL_HOSTS)}/{tail}"
    if rt:
        text = f"RT @{rng.choice(_MENTION_NAMES)}: {text}"
    if shout:
        words = text.split()
        pos = rng.randrange(len(words))
        words[pos] = words[pos].upper()
        text = " ".join(words)
    if bang:
        text = text + rng.choice(("!", "!!", "."))
    return text


def _templates_for(domain: LabelDomain, label: str):
    if domain.name == BINARY.name:
        return REQUEST_TEMPLATES if label == RWEET else CHATTER_TEMPLATES
    if domain.name == CATEGORICAL.name:
        return CATEGORY_TEMPLATES[label]
    raise ValidationError(f"no synthetic templates for domain {domain.name!r}")


def synth_corpus(seed: int, size: int, domain: LabelDomain) -> Dataset:
    """Deterministic labeled corpus of `size` tweets over `domain`.

    Every label is represented. Roughly one tweet in twelve is emitted as a
    near-duplicate pair member: same template and slot fill, different
    mentions, URLs, digits, and casing, so the pair collapses to a single
    tweet after cleaning.
    """
    if size < len(domain.labels):
        raise ValidationError(
            f"size {size} is smaller than the {len(domain.labels)}-label domain"
        )
    rng = random.Random(seed)

    n_dupes = size // 12 if size >= 24 else 0
    n_base = size - n_dupes

    labels = list(domain.labels)
    if domain.name == BINARY.name:
        weights = [0.44, 0.56]  # slight request-heavy skew, like real data
    else:
        weights = [1.0 / len(labels)] * len(labels)
    assigned = list(labels)  # guarantee every label appears
    assigned += rng.choices(labels, weights=weights, k=n_base - len(labels))
    rng.shuffle(assigned)

    entries = []  # (label, core, shape)
    for label in assigned:
        template = rng.choice(_templates_for(domain, label))
        core = _fill(template, rng)
        entries.append((label, core, _noise_shape(rng)))

    # duplicate pair members: re-decorate an existing core with fresh values
    for _ in range(n_dupes):
        label, core, shape = entries[rng.randrange(len(entries))]
        entries.append((label, core, shape))

    tweets = tuple(RawTweet(f"s{seed}-{i:05d}", _decorate(core, shape, rng), label)
                   for i, (label, core, shape) in enumerate(entries))
    del entries  # the cores and shapes are not needed while the Dataset checks ids
    return Dataset(domain, tweets)
