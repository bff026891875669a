"""A small JSON-schema validator for the schemas valsem ships.

It covers the draft-07 keywords those schemas use.  A schema that uses
any other keyword is rejected rather than half-checked.
"""

from __future__ import annotations

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
}
_ANNOTATIONS = {"$schema", "title", "description"}
_KEYWORDS = {"type", "required", "properties", "additionalProperties", "items", "enum",
             "minimum"} | _ANNOTATIONS


def errors(instance, schema, path="$"):
    """Every way ``instance`` breaks ``schema``, as readable strings."""
    unknown = set(schema) - _KEYWORDS
    if unknown:
        return [f"{path}: unsupported schema keywords {sorted(unknown)}"]
    if "type" in schema:
        types = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        if not any(_TYPES[t](instance) for t in types):
            return [f"{path}: expected {'/'.join(types)}, got {type(instance).__name__}"]
    out = []
    if "enum" in schema and instance not in schema["enum"]:
        out.append(f"{path}: {instance!r} not in {schema['enum']}")
    if "minimum" in schema and _TYPES["number"](instance) and instance < schema["minimum"]:
        out.append(f"{path}: {instance} below {schema['minimum']}")
    if isinstance(instance, dict):
        for key in schema.get("required", []):
            if key not in instance:
                out.append(f"{path}: missing {key!r}")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, val in instance.items():
            if key in props:
                out.extend(errors(val, props[key], f"{path}.{key}"))
            elif extra is False:
                out.append(f"{path}: unexpected key {key!r}")
            elif isinstance(extra, dict):
                out.extend(errors(val, extra, f"{path}.{key}"))
    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            out.extend(errors(item, schema["items"], f"{path}[{i}]"))
    return out
