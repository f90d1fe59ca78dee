"""Two's-complement integer semantics shared by every execution engine.

The IR interpreter, the WebAssembly interpreter, and the simulated x86
machine must agree bit-for-bit on arithmetic.  All of them normalize values
through these helpers: integers are stored *unsigned* (masked to the type
width) and reinterpreted as signed only where an operator demands it.
"""

from __future__ import annotations

import struct

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF


def signed32(value: int) -> int:
    """Reinterpret a 32-bit unsigned value as signed."""
    value &= MASK32
    return value - 0x100000000 if value >= 0x80000000 else value


def signed64(value: int) -> int:
    """Reinterpret a 64-bit unsigned value as signed."""
    value &= MASK64
    return value - 0x10000000000000000 if value >= 0x8000000000000000 else value


def signed(value: int, bits: int) -> int:
    """Reinterpret ``value`` as a signed ``bits``-wide integer."""
    value &= (1 << bits) - 1
    sign_bit = 1 << (bits - 1)
    return value - (1 << bits) if value & sign_bit else value


def div_s(a: int, b: int, bits: int) -> int:
    """Signed division truncating toward zero (C / wasm semantics)."""
    sa, sb = signed(a, bits), signed(b, bits)
    if sb == 0:
        raise ZeroDivisionError("integer divide by zero")
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    return q & ((1 << bits) - 1)


def rem_s(a: int, b: int, bits: int) -> int:
    """Signed remainder with the sign of the dividend (C / wasm semantics)."""
    sa, sb = signed(a, bits), signed(b, bits)
    if sb == 0:
        raise ZeroDivisionError("integer remainder by zero")
    r = abs(sa) % abs(sb)
    if sa < 0:
        r = -r
    return r & ((1 << bits) - 1)


def div_u(a: int, b: int, bits: int) -> int:
    mask = (1 << bits) - 1
    a &= mask
    b &= mask
    if b == 0:
        raise ZeroDivisionError("integer divide by zero")
    return a // b


def rem_u(a: int, b: int, bits: int) -> int:
    mask = (1 << bits) - 1
    a &= mask
    b &= mask
    if b == 0:
        raise ZeroDivisionError("integer remainder by zero")
    return a % b


def shl(a: int, b: int, bits: int) -> int:
    return (a << (b % bits)) & ((1 << bits) - 1)


def shr_u(a: int, b: int, bits: int) -> int:
    return (a & ((1 << bits) - 1)) >> (b % bits)


def shr_s(a: int, b: int, bits: int) -> int:
    return signed(a, bits) >> (b % bits) & ((1 << bits) - 1)


def rotl(a: int, b: int, bits: int) -> int:
    b %= bits
    mask = (1 << bits) - 1
    a &= mask
    return ((a << b) | (a >> (bits - b))) & mask


def rotr(a: int, b: int, bits: int) -> int:
    return rotl(a, bits - (b % bits), bits)


def clz(a: int, bits: int) -> int:
    a &= (1 << bits) - 1
    if a == 0:
        return bits
    return bits - a.bit_length()


def ctz(a: int, bits: int) -> int:
    a &= (1 << bits) - 1
    if a == 0:
        return bits
    return (a & -a).bit_length() - 1


def popcnt(a: int, bits: int) -> int:
    return bin(a & ((1 << bits) - 1)).count("1")


def trunc_f64(value: float, bits: int, is_signed: bool) -> int:
    """C-style truncation of a float to an integer; traps on overflow."""
    if value != value:  # NaN
        raise ArithmeticError("invalid conversion: NaN to integer")
    truncated = int(value)
    if is_signed:
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    else:
        lo, hi = 0, (1 << bits) - 1
    if not lo <= truncated <= hi:
        raise ArithmeticError("integer overflow in float->int conversion")
    return truncated & ((1 << bits) - 1)


def f64_bits(value: float) -> int:
    """Bit pattern of an IEEE-754 double as a 64-bit unsigned int."""
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def bits_f64(bits: int) -> float:
    """IEEE-754 double from a 64-bit bit pattern."""
    return struct.unpack("<d", struct.pack("<Q", bits & MASK64))[0]
