from .document import (
    FORMAT_VERSION,
    Mode,
    is_uuid_text,
    type_node,
    type_parts,
    validate_document,
)
from .states import DeserializerState, GlobalSerializerState, SerializerState
from .codec import (
    context_from_uuid,
    context_uuid,
    decode_elements,
    decode_polynomial,
    encode_elements,
    encode_polynomial,
    load,
    register_codec,
    save,
)
from .textio import parse_text, serialize_text

__all__ = [
    "DeserializerState",
    "FORMAT_VERSION",
    "GlobalSerializerState",
    "Mode",
    "SerializerState",
    "context_from_uuid",
    "context_uuid",
    "decode_elements",
    "decode_polynomial",
    "encode_elements",
    "encode_polynomial",
    "is_uuid_text",
    "load",
    "parse_text",
    "register_codec",
    "save",
    "serialize_text",
    "type_node",
    "type_parts",
    "validate_document",
]
