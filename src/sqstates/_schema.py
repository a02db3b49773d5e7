"""The JSON Schema subset behind the command-line configs.

The ``cli`` schemas use a dozen keywords: ``type`` (object, array,
number, integer, boolean), ``properties``, ``required``,
``additionalProperties: false``, ``const`` (a string), ``minimum``,
``maximum``, ``exclusiveMinimum``, ``items``, ``minItems`` and
``maxItems``.  This module checks exactly those, by the rules of JSON
Schema Draft 2020-12
(https://json-schema.org/draft/2020-12/json-schema-validation): a JSON
``true`` is neither a number nor an integer, and ``1.0`` is an integer.
A schema with any other keyword raises ``KeyError``.

Messages and the choice among several failures copy the ``jsonschema``
package (``Draft202012Validator`` with ``best_match``), which the tests
run as the oracle: the shallowest failure wins, then the greatest
instance path, then the first in schema-keyword order.  (``best_match``
also prefers a failure whose value misses its schema's ``type``, but
without ``allOf``-style combinators every failure at one path shares
its value and schema, so that rule never decides here.)
"""

from __future__ import annotations

import re


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    if isinstance(value, float):
        return value.is_integer()
    return _is_number(value)


_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "boolean": lambda value: isinstance(value, bool),
    "number": _is_number,
    "integer": _is_integer,
}


_KEYWORDS = frozenset((
    "type", "const", "required", "additionalProperties", "minItems",
    "maxItems", "minimum", "maximum", "exclusiveMinimum"))


def _message(keyword, bound, value, schema):
    """The failure message of one non-applicator keyword, or None."""
    if keyword not in _KEYWORDS:
        raise KeyError("unsupported schema keyword %r" % (keyword,))
    if keyword == "type":
        if not _TYPES[bound](value):
            return "%r is not of type %r" % (value, bound)
    elif keyword == "const":
        if value != bound:
            return "%r was expected" % (bound,)
    elif isinstance(value, dict):
        if keyword == "required":
            for name in bound:
                if name not in value:
                    return "%r is a required property" % (name,)
        elif keyword == "additionalProperties":
            extras = sorted(set(value) - set(schema.get("properties", {})))
            if bound is False and extras:
                return ("Additional properties are not allowed (%s %s "
                        "unexpected)" % (", ".join(map(repr, extras)),
                                         "was" if len(extras) == 1 else "were"))
    elif isinstance(value, list):
        if keyword == "minItems" and len(value) < bound:
            return "%r %s" % (value, "should be non-empty" if bound == 1
                              else "is too short")
        if keyword == "maxItems" and len(value) > bound:
            return "%r %s" % (value, "is expected to be empty" if bound == 0
                              else "is too long")
    elif _is_number(value):
        if keyword == "minimum" and value < bound:
            return "%r is less than the minimum of %r" % (value, bound)
        if keyword == "maximum" and value > bound:
            return "%r is greater than the maximum of %r" % (value, bound)
        if keyword == "exclusiveMinimum" and value <= bound:
            return ("%r is less than or equal to the minimum of %r"
                    % (value, bound))
    return None


def _errors(value, schema, path):
    """Yield ``(path, message)`` per failure, in schema-keyword order."""
    for keyword, bound in schema.items():
        if keyword == "properties":
            if isinstance(value, dict):
                for name, sub in bound.items():
                    if name in value:
                        yield from _errors(value[name], sub, path + (name,))
        elif keyword == "items":
            if isinstance(value, list):
                for index, item in enumerate(value):
                    yield from _errors(item, bound, path + (index,))
        else:
            message = _message(keyword, bound, value, schema)
            if message is not None:
                yield path, message


def best_match(instance, schema):
    """``(path, message)`` of the failure ``jsonschema`` reports, or None.

    ``path`` is the tuple of property names and item indices from the
    root of ``instance`` to the failing value.  Paths of one depth are
    compared element by element; where two first differ they index the
    same object or the same array, so the elements are of one type.
    """
    return max(_errors(instance, schema, ()),
               key=lambda error: (-len(error[0]), error[0]), default=None)


_NAME = re.compile(r"^[a-zA-Z][a-zA-Z0-9_]*$")


def json_path(root: str, path) -> str:
    """``path`` in ``jsonschema``'s JSONPath form, with ``root`` for ``$``."""
    parts = [root]
    for part in path:
        if isinstance(part, int):
            parts.append("[%d]" % part)
        elif _NAME.match(part):
            parts.append("." + part)
        else:
            parts.append("['%s']" % part.replace("\\", "\\\\")
                         .replace("'", "\\'"))
    return "".join(parts)
