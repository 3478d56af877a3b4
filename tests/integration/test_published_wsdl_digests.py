"""Every published WSDL and refusal is pinned, not only the golden seven.

Each server deploys its quick corpus and the composite corpora of 2, 3
and 4 members built from the same quick catalog.  Per (server, corpus)
one sha256 covers every record's service name, accepted flag, refusal
reason, endpoint URL and WSDL text, so any byte the deploy layer moves
fails here.  The digests were computed before the simple and composite
services shared one WSDL builder; regenerate them only for an emission
change that is meant to alter the published documents.
"""

import hashlib

import pytest

from repro.appservers import container_for
from repro.services import compose_corpus, generate_corpus

_DIGESTS = {
    ("metro", "simple"):
        "55565e428402c0240084a442b138dae6aeea04a9d02ed244f2da3823fbeb7f99",
    ("metro", "composite-2"):
        "0d7ad005ee3958bbb400191f397bf9fe227b952ce2c7b077d091f85903777fc5",
    ("metro", "composite-3"):
        "b0e6f10da4333e29c96e5264a5052291905c3315bd5229ea66e73eecc9076bf0",
    ("metro", "composite-4"):
        "6cfa58fcb8113988324b8ee8b217c95c8364325815d6f93798e2594c023ed21f",
    ("jbossws", "simple"):
        "08bcc80c12985add4bfcac5a0c2ef75a9d18dcdf000f3176fb52ee8546fda320",
    ("jbossws", "composite-2"):
        "ca1687236a82dbef82f962328b2c3c182e8c60a4495f62971f2bb1169c22f6a5",
    ("jbossws", "composite-3"):
        "247d88eb81f4a64854be6654e4cce4b931cc7f08ed0b818d0b7fa26aaa9c43c9",
    ("jbossws", "composite-4"):
        "1e0e81b40aa6f6c939e46680367800b94afa7b45c3ac9911e1ceae35ee7a1119",
    ("wcf", "simple"):
        "c5314fff3111f01ca960a8913c85996d05d40c18f4ad97b37ffbf772f0a84a56",
    ("wcf", "composite-2"):
        "3dc22204c30454c99370d5432dda25315f03751efc43eddfe4ac1fb04ad02cfe",
    ("wcf", "composite-3"):
        "812ab635bdfc6411aa149772294f89df52e2911799b77c809c74a921c5ddb671",
    ("wcf", "composite-4"):
        "936a1e41bc7fc045a2ab2886af5f166a0cd90eec7ae9e0d2afdb56c5241b175a",
}


def _corpus(catalog, corpus_name):
    if corpus_name == "simple":
        return generate_corpus(catalog)
    return compose_corpus(catalog, group_size=int(corpus_name.split("-")[1]))


def _digest(records):
    digest = hashlib.sha256()
    for record in records:
        fields = (
            record.service.name,
            "accepted" if record.accepted else "refused",
            record.reason,
            record.endpoint_url,
            record.wsdl_text,
        )
        digest.update("\x1f".join(fields).encode("utf-8") + b"\x1e")
    return digest.hexdigest()


@pytest.mark.parametrize("server_id,corpus_name", sorted(_DIGESTS))
def test_published_corpus_is_byte_identical(
    server_id, corpus_name, quick_java_catalog, quick_dotnet_catalog
):
    catalog = quick_dotnet_catalog if server_id == "wcf" else quick_java_catalog
    corpus = _corpus(catalog, corpus_name)
    records = container_for(server_id).deploy_corpus(corpus)
    assert len(records) == len(corpus)
    assert _digest(records) == _DIGESTS[server_id, corpus_name]
