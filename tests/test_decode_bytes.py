"""Pinned bytes of convex decodes.

Each entry of ``PINNED`` is the sha256 of the OBJ text
``write_obj(decode_convex(code).to_mesh())`` for n-gon prisms, chamfered
cubes (leg t = size / 100) and ``encode_convex`` of seeded
``random_hull_mesh`` hulls of n points (seed n), each as built and after
its float32 round trip through the .plnc format.  A change that only
makes decoding faster must leave every entry as it is.
"""

import hashlib

import numpy as np
import pytest

from planecode import decode_convex, encode_convex, read_code, shapes, write_code, write_obj

PINNED = {
    ("prism", 3, False): "a1aab215253368508580a2548a2ed8f8cee133ab395f086ac419dc9efdc1814f",
    ("prism", 3, True): "5a609c7dcfe3b57b43b447d9f591e6b1275c608e6bcde55d30ab42af975cd883",
    ("prism", 4, False): "8d1b9884f1734f4690b412da706413f5c169751a255ab4afa57711b1d4603a20",
    ("prism", 4, True): "19eae3dd72365ba78ba4766ca29e526b20939de20cae352f9b3ed55976e1a6d7",
    ("prism", 7, False): "f1468f3e8279d6b54379000d422902aed2395e389e95e14460668ea7afc17c9d",
    ("prism", 7, True): "f132c56b67e3909a9a49f41101f68e7eb317de9e5e8abfc065aeda0b18f99d12",
    ("prism", 12, False): "840caa791ce6c550f0f802735fd7fb72d817bb3e141796938596e46b7ea2b26d",
    ("prism", 12, True): "9749592ab5b6331d2325cd479757bcbbd0973b2bd977e0f6fe87b56c322e1db7",
    ("prism", 28, False): "7ac34e8929cc5c08fe2956fd197c1e315cb6fe27a79667e48d0a7850351854a1",
    ("prism", 28, True): "3d532d0e2f76a72e97bf6b796f1bef00ad34c5cfcd36934ca6d8c747af3fb69e",
    ("chamfer", 5, False): "9ee50e3be27802cef013cb9ffb15fb0fd386fbdaf867e61b5ae9d94797451c20",
    ("chamfer", 5, True): "2b1e13c53f2884eb6079d53d245f418f5efd854a4ac99049962304112e734ba0",
    ("chamfer", 20, False): "dbbf29e0128cc73ec3730e55c5f5f0145d1998aac0ab7f700335c20ad2fafb52",
    ("chamfer", 20, True): "7bbd8d5d71ab8fac7a9c92efce17bd6ced2a14cecd73f7e2cced7c507c782fff",
    ("chamfer", 40, False): "610b257d42fd08eb62850e25a2054cd46d458ef3293a135846278ce7bf6b6f33",
    ("chamfer", 40, True): "3405a95c7949a3210bd3f6a82f1b2610b005031de2831307593ac17496252b68",
    ("hull", 8, False): "ef9bd2acb45f15c87b54b44b526067190749a0706151c1a34444e5637c7acd1d",
    ("hull", 8, True): "427136207fbb988a55383b132925e4743a735caa9637a0dca5bfe8a834550067",
    ("hull", 16, False): "1f4dab2217968f69432649070a9fd7d2a3eba255877841316cf3b69efd3ecf93",
    ("hull", 16, True): "58f9ec48fd36efcfafd36ddd892a5f557534fb60a74152cae6807bd9ca7a3c19",
    ("hull", 32, False): "148ad89013392152d68c423b5e2370b5c64838cb79baed34302853dd5593ee4a",
    ("hull", 32, True): "3cb66337c8de52fe12abc22613090ad5d65a8c9991e2fefff4770e5e8946ff49",
    ("hull", 64, False): "d93a8b339c1aed5754ec72d51a63f3b8ee608b00a648b72227d0d6aef0ade710",
    ("hull", 64, True): "59228b285f0250b434baa7973a5d3f1328100fc5e29a38b6cdf20452a1920e09",
    ("hull", 128, False): "37c78d14098b653ff5fbb986569fb6f3e9bfc8388a22c5ce4d0693e8730b13dd",
    ("hull", 128, True): "515c74df1ab3f6858fede9989a1f7457f83abd3df7cc92cedf8fd1aa0ed83a76",
}


def decode_fixture(name, size):
    if name == "prism":
        return shapes.ngon_prism_code(size)
    if name == "chamfer":
        return shapes.chamfered_cube_code(size / 100.0)
    return encode_convex(shapes.random_hull_mesh(np.random.default_rng(size), size))


@pytest.mark.parametrize("name, size, f32", sorted(PINNED))
def test_convex_decode_bytes_are_pinned(name, size, f32):
    code = decode_fixture(name, size)
    if f32:
        code = read_code(write_code(code))
    text = write_obj(decode_convex(code).to_mesh())
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[name, size, f32]
